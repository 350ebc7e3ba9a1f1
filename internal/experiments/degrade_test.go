package experiments

import (
	"fmt"
	"strings"
	"testing"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/workloads"
)

// TestDegradeContract asserts the contract the degrade scenario exists
// to prove, on every golden seed (TestGolden/degrade_seed<N> locks its
// bytes): the failure-aware controller's JCT strictly beats the
// poisoned naive replan, the naive run swaps plans built on the
// blackout snapshot, and the hardened run rejects those snapshots and
// opens its breaker instead.
func TestDegradeContract(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= goldenSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := result[*DegradeResult](t, "degrade", seed)
			clean, naive, hardened := res.Rows[0], res.Rows[1], res.Rows[2]
			if hardened.JCTSeconds >= naive.JCTSeconds {
				t.Errorf("hardened JCT %.1fs does not beat naive %.1fs",
					hardened.JCTSeconds, naive.JCTSeconds)
			}
			if hardened.JCTSeconds < clean.JCTSeconds {
				t.Errorf("hardened JCT %.1fs beats the no-fault run %.1fs — scenario is not exercising the faults",
					hardened.JCTSeconds, clean.JCTSeconds)
			}
			if hardened.Rejected == 0 {
				t.Error("hardened variant rejected no snapshots under the blackout")
			}
			if naive.Rejected != 0 || clean.Rejected != 0 {
				t.Errorf("legacy variants rejected snapshots (clean=%d naive=%d)",
					clean.Rejected, naive.Rejected)
			}
			var breakerOpened bool
			for _, in := range hardened.Incidents {
				if strings.Contains(in, "breaker-open") {
					breakerOpened = true
				}
			}
			if !breakerOpened {
				t.Error("hardened variant never opened its circuit breaker")
			}
		})
	}
}

// chaosRegaugeConfig is the hardened controller the re-gauging soak
// runs under: staleness forces snapshots into the fault window.
// chaosRegaugeMinCoverage is the controller's coverage gate, the bound
// the soak asserts against.
const chaosRegaugeMinCoverage = 0.6

func chaosRegaugeConfig() rgauge.Config {
	return rgauge.Config{
		Enabled:          true,
		EpochS:           15,
		HysteresisEpochs: 2,
		CooldownS:        30,
		StaleAfterS:      30,
		Hardened:         true,
	}
}

// TestChaosRegaugeSoak runs the hardened re-gauging controller under
// the randomized chaos schedules with spark recovery enabled and
// asserts the degraded-mode invariant end to end: no drift or staleness
// plan swap ever consumes a snapshot below the coverage threshold (an
// Unmeasurable-majority snapshot is far below it), and every refusal is
// recorded as a degraded incident with its failing coverage. Evacuation
// swaps are the one sanctioned exception — a confirmed-dead DC is
// routed around whatever the snapshot looked like.
func TestChaosRegaugeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos re-gauge soak skipped in -short")
	}
	t.Parallel()
	const seeds = 8
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			model, err := sharedModel(Params{Seed: seed})
			if err != nil {
				t.Fatalf("model: %v", err)
			}
			cfg := netsim.UniformCluster(geo.TestbedSubset(chaosDCs), substrate.T2Medium, seed)
			for i := range cfg.VMs {
				for len(cfg.VMs[i]) < chaosVMsPerDC {
					cfg.VMs[i] = append(cfg.VMs[i], substrate.T2Medium)
				}
			}
			sim := netsim.NewSim(cfg)
			rng := simrand.Derive(seed, "chaos-schedule")
			schedule := chaosSchedule(rng, sim)
			schedule.Apply(sim)

			fw, err := wanify.New(wanify.Config{
				Cluster: sim, Rates: rates, Seed: seed,
				Agent:   agent.Config{Throttle: true},
				Runtime: chaosRegaugeConfig(),
			}, model)
			if err != nil {
				t.Fatalf("framework: %v", err)
			}
			sim.RunUntil(chaosStart - 1)
			pred, policy, _ := fw.Enable(wanify.OptimizeOptions{})
			defer fw.StopAgents()

			job := workloads.TeraSort(workloads.UniformInput(chaosDCs, 24e9))
			eng := spark.NewEngine(sim, rates)
			eng.Recovery = spark.RecoveryConfig{Enabled: true}
			sched := gda.Tetrium{Label: "tetrium(wanify)", Believed: pred, Info: gda.NewClusterInfo(sim, rates)}
			if _, err := eng.RunJob(job, sched, policy); err != nil {
				// Some schedules legitimately kill the job (e.g. a
				// whole DC dies); the soak's subject is the controller,
				// which must have upheld its invariant regardless.
				t.Logf("job under schedule %s: %v", schedule, err)
			}

			ctl := fw.Controller()
			if ctl == nil {
				t.Fatal("no controller on a runtime-enabled framework")
			}
			for _, ev := range ctl.Events() {
				if ev.Reason != rgauge.ReasonEvacuate && ev.Coverage < chaosRegaugeMinCoverage {
					t.Errorf("plan swap consumed a below-threshold snapshot: %s (coverage %.2f)",
						ev, ev.Coverage)
				}
			}
			for _, in := range ctl.Incidents() {
				if in.Reason == rgauge.ReasonDegraded && in.Coverage >= chaosRegaugeMinCoverage {
					t.Errorf("degraded incident recorded at passing coverage: %s", in)
				}
			}
			if ctl.Replans()+len(ctl.Incidents()) == 0 {
				t.Error("soak ran no re-gauge at all — staleness config is not exercising the controller")
			}
		})
	}
}
