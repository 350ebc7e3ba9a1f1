package experiments

import (
	"fmt"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/optimize"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/tracesim"
	"github.com/wanify/wanify/internal/workloads"
)

// TestFaultFreeRegaugeMeasuresEveryPair: on the fault-free re-gauging
// scenarios — rebalance's egress cut, rebalance-trace, degrade's clean
// variant and multijob-trace's two jobs under one controller — every
// re-gauge probe lands, so the failure-aware controller replans from
// measurements alone: coverage 1 on every replan, no pair filled, no
// probe retried, no snapshot refused, no incident. Each scenario is
// rebuilt as its driver builds it and must reproduce the driver's
// re-gauging row (the one its golden records), so what holds here holds
// for the goldens.
func TestFaultFreeRegaugeMeasuresEveryPair(t *testing.T) {
	t.Parallel()
	testbedTeraSort := func() spark.Job {
		return workloads.TeraSort(workloads.UniformInput(len(geo.Testbed()), 100e9))
	}
	cloud4 := tracesim.Cloud4().N()
	// driverRow is what a driver's re-gauging row records: each job's
	// JCT, the replan count and the re-gauge probe bytes.
	type driverRow struct {
		jcts         []float64
		replans      int
		regaugeBytes float64
	}
	rebalanceRow := func(r *RebalanceResult) driverRow {
		v := r.Rows[1]
		return driverRow{[]float64{v.JCTSeconds}, v.Replans, v.RegaugeBytes}
	}
	scenarios := []struct {
		name  string
		trial func(t *testing.T, p Params) (trial, []trialJob)
		// driver reads the driver's re-gauging row from its cached run.
		driver func(t *testing.T, seed uint64) driverRow
	}{
		{"rebalance", func(_ *testing.T, p Params) (trial, []trialJob) {
			t := wanifyTrial(p, egressCutTestbed, queryStart)
			t.runtime = rebalanceRuntime()
			return t, []trialJob{{job: testbedTeraSort()}}
		}, func(t *testing.T, seed uint64) driverRow {
			return rebalanceRow(result[*RebalanceResult](t, "rebalance", seed))
		}},
		{"rebalance-trace", func(_ *testing.T, p Params) (trial, []trialJob) {
			t := wanifyTrial(p, cloud4Replay, 560)
			t.runtime = rebalanceRuntime()
			return t, []trialJob{{job: workloads.TeraSort(workloads.UniformInput(cloud4, 60e9))}}
		}, func(t *testing.T, seed uint64) driverRow {
			return rebalanceRow(result[*RebalanceResult](t, "rebalance-trace", seed))
		}},
		{"degrade-clean", func(_ *testing.T, p Params) (trial, []trialJob) {
			t := wanifyTrial(p, func(seed uint64) (substrate.Cluster, error) { return netsimTestbed(seed), nil }, 0)
			t.runtime, t.recover = degradeRuntime(), true
			return t, []trialJob{{job: testbedTeraSort()}}
		}, func(t *testing.T, seed uint64) driverRow {
			v := result[*DegradeResult](t, "degrade", seed).Rows[0]
			var bytes float64
			for _, ev := range v.Events {
				bytes += ev.Cost.BytesTransferred
			}
			return driverRow{[]float64{v.JCTSeconds}, v.Replans, bytes}
		}},
		{"multijob-trace", func(tt *testing.T, p Params) (trial, []trialJob) {
			q95, err := workloads.TPCDS(95, workloads.UniformInput(cloud4, 16e9))
			if err != nil {
				tt.Fatal(err)
			}
			t := wanifyTrial(p, cloud4Replay, 560)
			t.share, t.runtime = optimize.ShareFair, rebalanceRuntime()
			return t, []trialJob{
				{job: workloads.TeraSort(workloads.UniformInput(cloud4, 24e9)), priority: 1},
				{job: q95, delayS: 20, priority: 1},
			}
		}, func(t *testing.T, seed uint64) driverRow {
			r := result[*MultijobResult](t, "multijob-trace", seed)
			v := r.Variants[len(r.Variants)-1]
			if v.Name != "regauge" {
				t.Fatalf("multijob-trace's last variant is %q, want regauge", v.Name)
			}
			row := driverRow{replans: v.Replans, regaugeBytes: v.RegaugeBytes}
			for _, j := range v.Rows {
				row.jcts = append(row.jcts, j.JCTSeconds)
			}
			return row
		}},
	}
	for _, sc := range scenarios {
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				tr, jobs := sc.trial(t, Params{Seed: seed}.withDefaults())
				set, ctl, err := tr.runSet(jobs...)
				if err != nil {
					t.Fatal(err)
				}
				want := sc.driver(t, seed)
				got := driverRow{replans: ctl.Replans(), regaugeBytes: ctl.TotalCost().BytesTransferred}
				for _, r := range set.Results {
					got.jcts = append(got.jcts, r.JCTSeconds)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("scenario is not its driver's re-gauging run: got %+v, the driver recorded %+v", got, want)
				}
				if got.replans == 0 {
					t.Fatal("no replan: the scenario does not exercise re-gauging")
				}
				for _, ev := range ctl.Events() {
					if ev.Coverage != 1 {
						t.Errorf("replan %s read a snapshot at coverage %v, want 1", ev, ev.Coverage)
					}
				}
				if in := ctl.Incidents(); len(in) != 0 {
					t.Errorf("incidents %v on a fault-free run", in)
				}
				g := ctl.Gauge()
				if g != (rgauge.GaugeStats{LastCoverage: 1}) {
					t.Errorf("gauge %+v: a probe did not land", g)
				}
			})
		}
	}
}
