package wanify_test

// These Benchmark* functions regenerate every table and figure of the
// paper's evaluation (DESIGN.md §3 maps ids to artifacts). They are a
// report generator; the repository's benchmark, the thing that times
// this system, is bench/ (BENCHMARK.json, bench/README.md).
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment driver at a
// reduced input scale (benchScale) so the full suite completes in
// minutes; cmd/wanify-bench runs the same drivers at paper scale.
// The first iteration of each benchmark logs the rendered result,
// so `go test -bench=. -v` doubles as a report generator.

import (
	"sync"
	"testing"

	"github.com/wanify/wanify/internal/experiments"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
)

const benchScale = 0.1

var (
	benchModel     *predict.Model
	benchModelOnce sync.Once
)

// benchParams shares one trained prediction model across benchmarks
// (the offline module is cluster-independent, as in a real deployment).
// Training happens once, on first use, so benchmark iterations measure
// the experiment drivers rather than model training.
func benchParams(b *testing.B) experiments.Params {
	b.Helper()
	benchModelOnce.Do(func() {
		m, err := experiments.SharedModel(experiments.Params{Seed: 1, Scale: benchScale})
		if err != nil {
			b.Fatalf("training shared bench model: %v", err)
		}
		benchModel = m
	})
	return experiments.Params{Seed: 1, Scale: benchScale, Model: benchModel}
}

// runExperiment executes one registered experiment b.N times, logging
// the rendered result once.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	p := benchParams(b)
	for i := 0; i < b.N; i++ {
		res, err := runner(p)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			b.Logf("\n%s", res)
		}
	}
}

// BenchmarkFig1TopologyMatrix regenerates the Fig. 1 single-connection
// bandwidth map (anchors: 1700 Mbps US East-US West, 121 Mbps US
// East-AP SE).
func BenchmarkFig1TopologyMatrix(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable1StaticVsRuntimeGaps regenerates Table 1: bucketed
// significant differences between static and runtime bandwidths.
func BenchmarkTable1StaticVsRuntimeGaps(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2MonitoringCostSavings regenerates Table 2: Eq. 1
// runtime-monitoring cost vs session-based training/prediction cost
// (~96% savings).
func BenchmarkTable2MonitoringCostSavings(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig2ConnectionStrategies regenerates Fig. 2: single vs
// uniform vs heterogeneous connections on the 3-DC cluster, plus the
// reduce-plan bottleneck latency.
func BenchmarkFig2ConnectionStrategies(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkTable4RuntimeBWGains regenerates Table 4: Tetrium/Kimchi
// improvements from simultaneous and predicted BWs over static, single
// connection.
func BenchmarkTable4RuntimeBWGains(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig4MLQuantization regenerates Fig. 4: NoQ/SAGQ/SimQ/PredQ/WQ
// training time and cost.
func BenchmarkFig4MLQuantization(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5ParallelApproaches regenerates Fig. 5: TeraSort under
// no-WAN-aware / WANify-P / WANify-Dynamic / WANify-TC.
func BenchmarkFig5ParallelApproaches(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6ShuffleSizes regenerates Fig. 6: WordCount across
// intermediate data sizes.
func BenchmarkFig6ShuffleSizes(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7StateOfTheArt regenerates Fig. 7: TPC-DS on Tetrium and
// Kimchi with and without WANify.
func BenchmarkFig7StateOfTheArt(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8aAblation regenerates Fig. 8(a): vanilla / global-only /
// local-only / full WANify on query 78.
func BenchmarkFig8aAblation(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8bPredictionError regenerates Fig. 8(b): WANify vs
// WANify-err (±100 Mbps injected prediction error).
func BenchmarkFig8bPredictionError(b *testing.B) { runExperiment(b, "fig8b") }

// BenchmarkFig9AIMDTracking regenerates Fig. 9: SD of AIMD target BWs
// vs monitored BWs per epoch, and the 20%-error significant deltas.
func BenchmarkFig9AIMDTracking(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10SkewedInputs regenerates Fig. 10: skewed WordCount
// under the four §5.8.1 variants on Tetrium and Kimchi.
func BenchmarkFig10SkewedInputs(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11aHeteroDCs regenerates Fig. 11(a): static vs predicted
// accuracy across cluster sizes.
func BenchmarkFig11aHeteroDCs(b *testing.B) { runExperiment(b, "fig11a") }

// BenchmarkFig11bHeteroVMs regenerates Fig. 11(b): accuracy with 1-5
// extra VMs at 3 DCs (association).
func BenchmarkFig11bHeteroVMs(b *testing.B) { runExperiment(b, "fig11b") }

// BenchmarkSec583HeteroCompute regenerates §5.8.3's text numbers:
// vanilla Tetrium vs Tetrium-r vs full WANify with an extra US East
// worker.
func BenchmarkSec583HeteroCompute(b *testing.B) { runExperiment(b, "sec583") }

// BenchmarkAblationModelChoice runs the §3.1 model-choice ablation: RF
// vs snapshot-passthrough vs linear regression vs k-NN.
func BenchmarkAblationModelChoice(b *testing.B) { runExperiment(b, "ablation-model") }

// BenchmarkAblationNetsimKnobs sweeps the simulator's RTT-bias exponent
// and congestion knee, showing which design choices the paper's Fig. 2
// phenomena depend on.
func BenchmarkAblationNetsimKnobs(b *testing.B) { runExperiment(b, "ablation-netsim") }

// BenchmarkMultiCloudAccuracy runs the AWS+GCP accuracy check §5.8.3
// mentions but omits for space.
func BenchmarkMultiCloudAccuracy(b *testing.B) { runExperiment(b, "multicloud") }

// BenchmarkChurnRebalance times the serving plane's churn event in
// isolation: a full 4-slot dynamic deployment on the 4-DC testbed, the
// controller attached, and per iteration one ReleaseJob (three
// survivors' windows widen) plus one AdmitJob (they narrow again, the
// freed slot's agents are re-armed). With -benchmem it shows what an
// event allocates: the re-armed agents' epoch timers, never an agent or
// the survivors' windows.
func BenchmarkChurnRebalance(b *testing.B) {
	const slots = 4
	fw, sim := newDynamicDeployment(b, []int{1, 1, 1, 1}, optimize.ShareFair, slots, 1e9)
	defer fw.StopAgents()
	for g := 0; g < slots; g++ {
		if _, _, err := fw.AdmitJob(1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fw.ReleaseJob(i % slots); err != nil {
			b.Fatal(err)
		}
		if _, _, err := fw.AdmitJob(1); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			// A stopped agent's epoch timer leaves the substrate's queue
			// only when its time comes: let an epoch pass now and then,
			// or the queue grows with b.N.
			sim.RunFor(5)
		}
	}
}
