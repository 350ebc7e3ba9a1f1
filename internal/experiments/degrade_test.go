package experiments

import (
	"fmt"
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
// bytes): under the blackout the controller refuses the snapshot whose
// window the pair reset strikes (t=745) for coverage below the gate,
// opens its breaker, never swaps a plan built on a below-coverage
// snapshot, and finishes after the no-fault run but within 8% of it.
func TestDegradeContract(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= goldenSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := result[*DegradeResult](t, "degrade", seed)
			if len(res.Rows) != 2 {
				t.Fatalf("%d variants, want clean and hardened", len(res.Rows))
			}
			clean, hardened := res.Rows[0], res.Rows[1]
			if hardened.JCTSeconds <= clean.JCTSeconds {
				t.Errorf("hardened JCT %.1fs is no later than the no-fault run %.1fs — scenario is not exercising the faults",
					hardened.JCTSeconds, clean.JCTSeconds)
			}
			if hardened.JCTSeconds > 1.08*clean.JCTSeconds {
				t.Errorf("hardened JCT %.1fs is more than 8%% over the no-fault run %.1fs",
					hardened.JCTSeconds, clean.JCTSeconds)
			}
			if clean.Rejected != 0 || len(clean.Incidents) != 0 {
				t.Errorf("the no-fault run rejected %d snapshots", clean.Rejected)
			}
			var rejectedReset, breakerOpened bool
			for _, in := range hardened.Incidents {
				switch in.Reason {
				case rgauge.ReasonDegraded:
					if in.TriggeredAt <= degradeResetAt && degradeResetAt < in.AppliedAt {
						rejectedReset = in.Coverage < chaosRegaugeMinCoverage
					}
				case rgauge.ReasonBreaker:
					breakerOpened = true
				}
			}
			if !rejectedReset {
				t.Errorf("the snapshot the blackout and reset struck was not refused below coverage %v: %v",
					chaosRegaugeMinCoverage, hardened.Incidents)
			}
			if !breakerOpened {
				t.Error("hardened variant never opened its circuit breaker")
			}
			for _, row := range res.Rows {
				for _, ev := range row.Events {
					if ev.Coverage < chaosRegaugeMinCoverage {
						t.Errorf("%s: plan swap consumed a below-threshold snapshot: %s (coverage %.2f)",
							row.Variant, ev, ev.Coverage)
					}
				}
			}
		})
	}
}

// chaosRegaugeConfig is the controller the re-gauging soak
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
	}
}

// TestChaosRegaugeSoak runs the re-gauging controller under
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
