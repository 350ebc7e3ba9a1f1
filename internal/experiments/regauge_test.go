package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/optimize"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/tracesim"
	"github.com/wanify/wanify/internal/workloads"
)

// TestHardenedMatchesLegacyWhenEveryProbeLands: on the fault-free
// re-gauging scenarios — rebalance's egress cut, rebalance-trace,
// degrade's clean variant and multijob-trace's two jobs under one
// controller — every re-gauge probe lands, and a hardened controller
// must then be the legacy one bit for bit: the same jobs' JCT, WAN
// bytes, cost and minimum bandwidth, and the same replans with the
// same bills.
func TestHardenedMatchesLegacyWhenEveryProbeLands(t *testing.T) {
	t.Parallel()
	testbedTeraSort := func() spark.Job {
		return workloads.TeraSort(workloads.UniformInput(len(geo.Testbed()), 100e9))
	}
	cloud4 := tracesim.Cloud4().N()
	// Each scenario is its driver's re-gauging variant, as the driver
	// builds it; every call builds fresh jobs.
	scenarios := []struct {
		name  string
		trial func(t *testing.T, p Params) (trial, []trialJob)
	}{
		{"rebalance", func(_ *testing.T, p Params) (trial, []trialJob) {
			t := wanifyTrial(p, egressCutTestbed, queryStart)
			t.runtime = rebalanceRuntime()
			return t, []trialJob{{job: testbedTeraSort()}}
		}},
		{"rebalance-trace", func(_ *testing.T, p Params) (trial, []trialJob) {
			t := wanifyTrial(p, cloud4Replay, 560)
			t.runtime = rebalanceRuntime()
			return t, []trialJob{{job: workloads.TeraSort(workloads.UniformInput(cloud4, 60e9))}}
		}},
		{"degrade-clean", func(_ *testing.T, p Params) (trial, []trialJob) {
			t := wanifyTrial(p, func(seed uint64) (substrate.Cluster, error) { return netsimTestbed(seed), nil }, 0)
			t.runtime, t.recover = degradeRuntime(false), true
			return t, []trialJob{{job: testbedTeraSort()}}
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
		}},
	}
	for _, sc := range scenarios {
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				run := func(hardened bool) (spark.JobSetResult, *rgauge.Controller) {
					tr, jobs := sc.trial(t, Params{Seed: seed}.withDefaults())
					tr.runtime.Hardened = hardened
					set, ctl, err := tr.runSet(jobs...)
					if err != nil {
						t.Fatalf("hardened=%v: %v", hardened, err)
					}
					return set, ctl
				}
				legacy, lctl := run(false)
				hard, hctl := run(true)
				if hctl.Replans() == 0 {
					t.Fatal("no replan: the scenario does not exercise re-gauging")
				}
				if g := hctl.Gauge(); g.FusedPairs != 0 || g.Retries != 0 || len(hctl.Incidents()) != 0 {
					t.Fatalf("a probe did not land: %d pairs filled, %d retries, incidents %v",
						g.FusedPairs, g.Retries, hctl.Incidents())
				}
				for i, l := range legacy.Results {
					h := hard.Results[i]
					for _, c := range []struct {
						what       string
						legacy, hd any
					}{
						{"JCT", l.JCTSeconds, h.JCTSeconds},
						{"WAN bytes", l.WANBytes, h.WANBytes},
						{"cost", l.Cost, h.Cost},
						{"min BW", l.MinShuffleMbps, h.MinShuffleMbps},
					} {
						if c.legacy != c.hd {
							t.Errorf("job %d %s: legacy %v, hardened %v", i, c.what, c.legacy, c.hd)
						}
					}
				}
				lev, hev := lctl.Events(), hctl.Events()
				if len(lev) != len(hev) {
					t.Fatalf("legacy replanned %d times, hardened %d", len(lev), len(hev))
				}
				for k := range lev {
					if lev[k].String() != hev[k].String() || lev[k].Cost != hev[k].Cost {
						t.Errorf("replan %d: legacy %s billed %+v, hardened %s billed %+v",
							k, lev[k], lev[k].Cost, hev[k], hev[k].Cost)
					}
				}
				if !reflect.DeepEqual(legacy, hard) {
					t.Error("legacy and hardened job results differ beyond the compared fields")
				}
			})
		}
	}
}
