// Command wanify-sim runs a single geo-distributed analytics job on a
// WAN substrate (the simulated 8-region testbed by default, or a
// trace replay) under a chosen scheduler and connection strategy,
// printing per-stage timing and the itemized cost.
//
//	wanify-sim -job terasort -gb 100
//	wanify-sim -job tpcds-78 -sched tetrium -conns wanify
//	wanify-sim -job wordcount -mb 600 -skew -sched kimchi -conns uniform
//	wanify-sim -job terasort -backend trace:cloud4
//	wanify-sim -job terasort -conns wanify -model model.gob
//	wanify-sim -job terasort -conns wanify -jobs 3 -share remaining
//	wanify-sim -topo fleet:100x4 -sched tetrium -believe oracle -conns uniform
//
// Schedulers: locality (vanilla Spark), iridium (Pu et al.'s classic
// per-site placement), tetrium, kimchi — plus the pluggable descent
// objectives: any registered scorer name (jct, cost, carbon) or a
// weighted blend such as -sched blend:jct=0.5,cost=0.3,carbon=0.2
// (see internal/gda's Scorer). For the WAN-aware schedulers,
// -believe picks the bandwidth matrix they plan with (static,
// simultaneous, predicted). Connection strategies: single, uniform
// (8 per pair), wanify (predicted BWs + heterogeneous agent-managed
// pools + throttling: one wanify.EnableJobSet gauges the cluster,
// plans from WANify's prediction whatever -believe says, and deploys
// the agents; with -believe predicted that prediction is also the
// scheduler's belief). -jobs N runs N copies of the job concurrently
// over one cluster (the multi-tenant JobSet runner); with -conns
// wanify, -share picks how the global plan's windows split across the
// jobs (fair, priority, remaining). -rebalance adds the mid-job
// re-gauging controller (internal/runtime): the plan is re-measured
// and swapped into the running agents when WAN drift is detected —
// with -jobs N one controller arbitrates for the whole set. Its
// gauging is failure-aware (probe retry/backoff, partial snapshots
// whose unmeasurable pairs take the last value measured there,
// coverage-gated replans, circuit breaker); -probe-fail T injects a
// measurement-poisoning fault burst at time T to aim at a re-gauge
// window. -backend
// selects the substrate (netsim, trace, trace:<name|file>); -model
// reuses a wanify-train model so the online run skips retraining.
// -topo fleet:<dcs>x<vms> swaps the testbed for a synthetic fleet
// topology (geo.Fleet via netsim.FleetCluster) at any scale tier; on
// a fleet, pair -sched tetrium/kimchi with -believe oracle (the
// simulator's true single-connection caps — fleet runs skip model
// training and measurement probing, which do not scale to hundreds of
// DCs) and -conns single or uniform.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/experiments"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/trace"
	"github.com/wanify/wanify/internal/workloads"
)

func main() {
	var (
		jobName = flag.String("job", "terasort", "terasort | wordcount | tpcds-82 | tpcds-95 | tpcds-11 | tpcds-78")
		gb      = flag.Float64("gb", 100, "input size in GB (terasort, tpcds)")
		mb      = flag.Float64("mb", 600, "input size in MB (wordcount)")
		skew    = flag.Bool("skew", false, "wordcount only: skew input onto 4 hot DCs (§5.8.1)")
		sched   = flag.String("sched", "locality", gda.SchedulerSpecs())
		believe = flag.String("believe", "predicted", "static | simultaneous | predicted | oracle (for tetrium/kimchi; oracle = netsim true caps)")
		conns   = flag.String("conns", "single", "single | uniform | wanify (windows planned from WANify's own prediction, whatever -believe says)")
		jobs    = flag.Int("jobs", 1, "run N copies of the job concurrently over one cluster (multi-tenant)")
		shareS  = flag.String("share", "fair", "with -jobs N and -conns wanify: split the global plan's windows across jobs by fair | priority | remaining (priority: job 0 ranks highest)")
		rebal   = flag.Bool("rebalance", false, "with -conns wanify: re-gauge and rebalance the plan mid-job when WAN drift is detected (with -jobs N: one shared controller arbitrates for all jobs)")
		pfailAt = flag.Float64("probe-fail", -1, "inject a measurement-poisoning burst at this simulated time (s): the first third of the DCs partition for 60 s and one healthy pair resets 1 s in; aim it at a -rebalance re-gauge window to watch the poisoned snapshot be rejected instead of replanned")
		traceTo = flag.String("trace", "", "write a per-pair rate time series (CSV) to this file")
		backend = flag.String("backend", "netsim", "substrate backend: netsim | trace | trace:<name|file>")
		topo    = flag.String("topo", "testbed", "cluster topology: testbed | fleet:<dcs>x<vms> (synthetic fleet, netsim only)")
		modelIn = flag.String("model", "", "load a wanify-train model instead of quick-training (gob)")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		killDC  = flag.Int("kill-dc", -1, "kill every VM of this DC at -kill-at (fault injection)")
		killAt  = flag.Float64("kill-at", 60, "simulated time (s) at which -kill-dc dies")
		recover = flag.Bool("recover", false, "enable fault recovery: re-replicate lost stage outputs and re-enter the transfer phase instead of aborting")
	)
	flag.Parse()

	// Validate the enumerated flags up front — before any model
	// training or cluster construction runs — so a typo fails in
	// milliseconds with the valid set, not minutes in.
	if _, err := gda.ParseScheduler(*sched, nil, gda.ClusterInfo{}); err != nil {
		log.Fatal(err)
	}
	switch *believe {
	case "static", "simultaneous", "predicted", "oracle":
	default:
		log.Fatalf("unknown belief %q (want static | simultaneous | predicted | oracle)", *believe)
	}
	switch *conns {
	case "single", "uniform", "wanify":
	default:
		log.Fatalf("unknown conns %q (want single | uniform | wanify)", *conns)
	}
	if *jobs < 1 {
		log.Fatalf("-jobs must be at least 1, got %d", *jobs)
	}
	// Fault instants must be finite: a NaN one would misorder the
	// simulator's timer heap.
	for _, f := range []struct {
		name string
		v    float64
	}{{"kill-at", *killAt}, {"probe-fail", *pfailAt}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			log.Fatalf("-%s must be a finite time, got %v", f.name, f.v)
		}
	}
	if *skew && *jobName != "wordcount" {
		log.Fatalf("-skew skews the wordcount input and requires -job wordcount, not %q", *jobName)
	}
	share, err := optimize.ParseShareMode(*shareS)
	if err != nil {
		log.Fatal(err)
	}

	rates := cost.DefaultRates()
	be, err := experiments.ParseBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}
	var sim substrate.Cluster
	if *topo == "testbed" || *topo == "" {
		sim, err = be.NewTestbed(be.NumDCs(), *seed)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var dcs, vms int
		if _, err := fmt.Sscanf(*topo, "fleet:%dx%d", &dcs, &vms); err != nil || dcs < 2 || vms < 1 {
			log.Fatalf("bad -topo %q (want testbed or fleet:<dcs>x<vms>, e.g. fleet:100x4)", *topo)
		}
		if *backend != "netsim" {
			log.Fatalf("-topo fleet requires the netsim backend, not %q", *backend)
		}
		sim = netsim.NewSim(netsim.FleetCluster(dcs, vms, substrate.T2Medium, *seed))
	}
	n := sim.NumDCs()

	// Fault injection: schedule the DC death before the run starts so
	// it fires through the substrate's own timer queue.
	if *killDC >= 0 {
		if *killDC >= n {
			log.Fatalf("-kill-dc %d out of range (backend has %d DCs)", *killDC, n)
		}
		var schedule substrate.FaultSchedule
		for _, vm := range sim.VMsOfDC(*killDC) {
			schedule = append(schedule, substrate.Fault{
				Kind: substrate.FaultKillVM, VM: vm, At: *killAt,
			})
		}
		schedule.Apply(sim)
		fmt.Printf("fault schedule: %s\n", schedule)
	}

	// Measurement-poisoning burst: partition enough DCs to drag a
	// snapshot below the controller's coverage threshold, and reset one
	// healthy pair mid-window so a probe dies in flight.
	if *pfailAt >= 0 {
		dark := n / 3
		if dark < 1 {
			dark = 1
		}
		var schedule substrate.FaultSchedule
		for dc := 1; dc <= dark; dc++ {
			schedule = append(schedule, substrate.Fault{
				Kind: substrate.FaultPartitionDC, DC: dc % n,
				At: *pfailAt, Until: *pfailAt + 60,
			})
		}
		schedule = append(schedule, substrate.Fault{
			Kind: substrate.FaultResetPair, SrcDC: (dark + 1) % n, DstDC: (dark + 2) % n,
			At: *pfailAt + 1,
		})
		schedule.Apply(sim)
		fmt.Printf("probe-fail schedule: %s\n", schedule)
	}

	// Input layout.
	var input []float64
	switch {
	case *jobName == "wordcount" && *skew:
		if n < 4 {
			log.Fatalf("-skew needs at least 4 DCs; backend %s has %d", be, n)
		}
		input = workloads.SkewedInput(n, *mb*1e6, []int{0, 1, 2, 3}, 0.95)
	case *jobName == "wordcount":
		input = workloads.UniformInput(n, *mb*1e6)
	default:
		input = workloads.UniformInput(n, *gb*1e9)
	}

	// Job.
	var job spark.Job
	switch {
	case *jobName == "terasort":
		job = workloads.TeraSort(input)
	case *jobName == "wordcount":
		job = workloads.WordCount(input, sumOf(input))
	case strings.HasPrefix(*jobName, "tpcds-"):
		var q int
		if _, err := fmt.Sscanf(*jobName, "tpcds-%d", &q); err != nil {
			log.Fatalf("bad job name %q", *jobName)
		}
		var err error
		job, err = workloads.TPCDS(q, input)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown job %q", *jobName)
	}

	// WANify framework (trained on demand) when needed.
	var fw *wanify.Framework
	needsModel := *conns == "wanify" || (*sched != "locality" && *believe == "predicted")
	if needsModel && !(*topo == "testbed" || *topo == "") {
		log.Fatal("-topo fleet does not support model-backed runs (training and runtime probing do not scale to fleet sizes): use -believe oracle|static|simultaneous and -conns single|uniform")
	}
	if needsModel {
		var model *predict.Model
		if *modelIn != "" {
			var err error
			model, err = predict.LoadFile(*modelIn)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("loaded prediction model from %s (%d trees)\n", *modelIn, model.Forest().NumTrees())
		} else {
			fmt.Println("training the offline prediction model (quick configuration)...")
			var rep wanify.TrainReport
			var err error
			model, rep, err = wanify.QuickModel(*seed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("model ready: %d rows, %.1f%% train accuracy\n", rep.Rows, rep.TrainAccuracy*100)
		}
		fw, err = wanify.New(wanify.Config{
			Cluster: sim, Rates: rates, Seed: *seed,
			Agent:   agent.Config{Throttle: true},
			Runtime: rgauge.Config{Enabled: *rebal},
		}, model)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Believed bandwidth matrix for WAN-aware schedulers.
	var believed bwmatrix.Matrix
	if *sched != "locality" {
		switch *believe {
		case "static":
			believed, _ = measure.StaticIndependent(sim, measure.Options{DurationS: 8})
		case "simultaneous":
			believed, _ = measure.StaticSimultaneous(sim, measure.StableOptions())
		case "predicted":
			if *conns != "wanify" { // -conns wanify gauges as it deploys, below
				believed, _ = fw.DetermineRuntimeBW()
			}
		case "oracle":
			ns, ok := sim.(*netsim.Sim)
			if !ok {
				log.Fatal("-believe oracle reads the simulator's true caps and needs the netsim backend")
			}
			believed = ns.PerConnCapMatrix()
		}
	}

	// Connection policy (one per job under wanify: each job's agents
	// hold that job's partition of the plan, and throttling is
	// installed at the cluster level from the global plan).
	var jobSet *spark.JobSet // assigned before Run; feeds bytes-remaining sharing
	var policy spark.ConnPolicy = spark.SingleConn{}
	var policies []spark.ConnPolicy // per job under wanify
	switch *conns {
	case "single":
	case "uniform":
		policy = spark.UniformConn{K: 8}
	case "wanify":
		var ws []float64
		if *skew {
			ws = workloads.SkewWeights(input)
		}
		prios := make([]float64, *jobs)
		for i := range prios {
			prios[i] = float64(*jobs - i)
		}
		pred, slots, _, err := fw.EnableJobSet(wanify.JobSetOptions{
			Jobs:       *jobs,
			Share:      share,
			Priorities: prios,
			Remaining: func() []float64 {
				if jobSet == nil {
					return nil
				}
				return jobSet.RemainingBytes()
			},
			Optimize: wanify.OptimizeOptions{SkewWeights: ws},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer fw.StopAgents()
		policies = slots
		if *sched != "locality" && *believe == "predicted" {
			believed = pred
		}
	}

	// Scheduler (validated up front; this construction cannot fail).
	info := gda.NewClusterInfo(sim, rates)
	scheduler, err := gda.ParseScheduler(*sched, believed, info)
	if err != nil {
		log.Fatal(err)
	}

	if *jobs > 1 {
		fmt.Printf("\nrunning %d x %s concurrently on %d DCs (%s): scheduler=%s conns=%s share=%s\n",
			*jobs, job.Name, n, be, scheduler.Name(), *conns, share)
	} else {
		fmt.Printf("\nrunning %s on %d DCs (%s): scheduler=%s conns=%s\n", job.Name, n, be, scheduler.Name(), *conns)
	}
	eng := spark.NewEngine(sim, rates)
	if *recover {
		eng.Recovery = spark.RecoveryConfig{Enabled: true}
	}
	var rec *trace.Recorder
	if *traceTo != "" {
		rec = trace.NewRecorder(sim, 1.0)
	}

	runs := make([]spark.JobRun, *jobs)
	for i := range runs {
		runs[i] = spark.JobRun{Job: job, Sched: scheduler, Policy: policy}
		if policies != nil {
			runs[i].Policy = policies[i]
		}
	}
	jobSet, err = spark.NewJobSet(eng, runs)
	if err != nil {
		log.Fatal(err)
	}
	set, err := jobSet.Run()
	if err != nil {
		log.Fatal(err)
	}
	results, makespan := set.Results, set.MakespanS
	if rec != nil {
		rec.Close()
		f, err := os.Create(*traceTo)
		if err != nil {
			log.Fatalf("create trace file: %v", err)
		}
		if err := rec.WriteCSV(f, true); err != nil {
			log.Fatalf("write trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("close trace: %v", err)
		}
		fmt.Printf("rate trace (%d samples) written to %s\n", rec.Len(), *traceTo)
	}

	for i, res := range results {
		if len(results) > 1 {
			fmt.Printf("\n--- job %d ---\n", i)
		}
		fmt.Printf("\n%-14s%12s%12s%14s%14s\n", "stage", "transfer(s)", "compute(s)", "WAN bytes", "placement")
		for _, st := range res.Stages {
			fmt.Printf("%-14s%12.1f%12.1f%14.3g  %s\n",
				st.Name, st.TransferS, st.ComputeS, st.WANBytes, placementString(st.Placement))
		}
		fmt.Printf("\nJCT: %.1f s (%.1f min)\n", res.JCTSeconds, res.JCTSeconds/60)
		fmt.Printf("min observed pair BW: %.0f Mbps\n", res.MinShuffleMbps)
		fmt.Printf("WAN bytes total: %.2f GB\n", res.WANBytes/1e9)
		fmt.Printf("cost: $%.3f (compute $%.3f + network $%.3f + storage $%.4f)\n",
			res.Cost.Total(), res.Cost.ComputeUSD, res.Cost.NetworkUSD, res.Cost.StorageUSD)
		fmt.Printf("energy: %.2f kWh, %.3f kgCO2e (compute %.2f kWh + network %.2f kWh)\n",
			res.Energy.KWh(), res.Energy.KgCO2(), res.Energy.ComputeKWh, res.Energy.NetworkKWh)
		if res.LostBytes > 0 || res.Recoveries > 0 {
			fmt.Printf("fault recovery: %.2f GB lost, %.2f GB re-routed over %d waves (%.1f s recompute)\n",
				res.LostBytes/1e9, res.RecoveredBytes/1e9, res.Recoveries, res.RecomputeS)
		}
	}
	if fw != nil {
		if ctl := fw.Controller(); ctl != nil {
			fmt.Printf("\nre-gauging: %d replans over %d drift epochs (probe traffic %.1f MB)\n",
				ctl.Replans(), ctl.DriftEpochs(), ctl.TotalCost().BytesTransferred/1e6)
			for _, ev := range ctl.Events() {
				fmt.Printf("  replan %s\n", ev)
			}
			g := ctl.Gauge()
			fmt.Printf("  gauge: coverage %.0f%%, %d rejected snapshots, %d probe retries, %d unmeasurable pairs, %d filled\n",
				g.LastCoverage*100, g.RejectedSnapshots, g.Retries, g.UnmeasurablePairs, g.FusedPairs)
			for _, in := range ctl.Incidents() {
				fmt.Printf("  incident %s\n", in)
			}
		}
	}
	if len(results) > 1 {
		fmt.Printf("\nmakespan: %.1f s (%.1f min)\n", makespan, makespan/60)
	}
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func placementString(p spark.Placement) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.2f", v)
	}
	b.WriteByte(']')
	return b.String()
}
