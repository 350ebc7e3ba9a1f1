package runtime_test

import (
	"reflect"
	"testing"

	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	rgauge "github.com/wanify/wanify/internal/runtime"
)

// TestHealthyReplansMatchSnapshotTwin: on a healthy network a default
// controller replans from exactly what a synchronous measure.Snapshot
// of a twin cluster reads at the same instants — full coverage,
// nothing filled, no incidents, no degraded state.
func TestHealthyReplansMatchSnapshotTwin(t *testing.T) {
	sim := frozenSim(3, 51)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 51), rgauge.Config{
		Enabled: true, EpochS: 5, StaleAfterS: 30, CooldownS: 10,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	sim.RunFor(100)
	if got := ctl.Replans(); got < 2 {
		t.Fatalf("staleness clock fired %d replans, want >= 2", got)
	}
	twin := newSnapshotTwin(3, 51)
	var want bwmatrix.Matrix
	for _, ev := range ctl.Events() {
		if ev.Coverage != 1 {
			t.Errorf("healthy replan coverage = %v, want 1", ev.Coverage)
		}
		want = twin.snapshotAt(ev.TriggeredAt)
	}
	if got := prediction(ctl); !reflect.DeepEqual(got, want) {
		t.Errorf("last replan predicted from\n%v\nthe twin's snapshot reads\n%v", got, want)
	}
	if n := len(ctl.Incidents()); n != 0 {
		t.Errorf("healthy run recorded %d incidents", n)
	}
	g := ctl.Gauge()
	if g.Degraded || g.BreakerOpen || g.RejectedSnapshots != 0 || g.FusedPairs != 0 || g.LastCoverage != 1 {
		t.Errorf("healthy gauge = %+v", g)
	}
	if ctl.Degraded() {
		t.Error("healthy controller reports degraded")
	}
}

// TestDegradedModeAndBreaker walks the full state machine: a partition
// poisons every snapshot (coverage far below threshold) → rejections
// accumulate → the breaker opens and suppresses re-gauging → the
// partition heals → the breaker re-arms and the next clean snapshot
// replans. Along the way it locks the acceptance property: no plan
// swap ever consumes a below-coverage-threshold snapshot.
func TestDegradedModeAndBreaker(t *testing.T) {
	sim := frozenSim(4, 53)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))

	snapshots := 0
	d := deps(sim, agents, 53)
	baseSnap := d.SnapshotOpts
	d.SnapshotOpts = func() measure.Options {
		snapshots++
		return baseSnap()
	}
	const minCov = 0.6 // the controller's coverage gate
	ctl := rgauge.Start(d, rgauge.Config{
		Enabled: true, EpochS: 5, StaleAfterS: 30, CooldownS: 10,
		// The breaker opens after 3 rejections, for 4 epochs = 20 s.
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	// DCs 1 and 2 partition just before the first stale snapshot
	// (t=30) and heal at t=80: 10 of 12 ordered pairs stall →
	// coverage 1/6, every snapshot rejected until the heal.
	sim.PartitionDC(1, 29, 80)
	sim.PartitionDC(2, 29, 80)

	sim.RunFor(50) // t=50: three rejections behind us, breaker open
	if got := ctl.Replans(); got != 0 {
		t.Fatalf("%d plan swaps from sub-threshold snapshots", got)
	}
	g := ctl.Gauge()
	if !g.BreakerOpen || !g.Degraded {
		t.Fatalf("breaker not open after 3 rejections: %+v", g)
	}
	if g.BreakerUntil != 61 {
		t.Errorf("breaker re-arms at %v, want 61 (opened at 41 + 20s backoff)", g.BreakerUntil)
	}
	if g.RejectedSnapshots != 3 || snapshots != 3 {
		t.Errorf("rejected=%d snapshots=%d, want 3/3 (epochs 30, 35, 40)", g.RejectedSnapshots, snapshots)
	}
	if g.LastCoverage >= minCov {
		t.Errorf("LastCoverage = %v, want below %v", g.LastCoverage, minCov)
	}

	sim.RunFor(12) // t=62: breaker held through the 45–60 epochs
	if snapshots != 3 {
		t.Errorf("open breaker let %d extra snapshots through", snapshots-3)
	}

	sim.RunFor(48) // t=110: healed at 80; breaker from the 2nd burst re-arms, clean replan lands
	if got := ctl.Replans(); got != 1 {
		t.Fatalf("replans after heal = %d, want exactly 1", got)
	}
	ev := ctl.Events()[0]
	if ev.Reason != rgauge.ReasonStale || ev.Coverage != 1 {
		t.Errorf("recovery replan = %+v, want stale at coverage 1", ev)
	}
	if ctl.Degraded() {
		t.Error("controller still degraded after a clean replan")
	}

	// The acceptance property, over everything that happened: swaps
	// only from snapshots at or above the threshold, rejections only
	// below it.
	for _, ev := range ctl.Events() {
		if ev.Coverage < minCov {
			t.Errorf("plan swap consumed a %.0f%%-coverage snapshot", ev.Coverage*100)
		}
	}
	degraded, breakers := 0, 0
	for _, in := range ctl.Incidents() {
		switch in.Reason {
		case rgauge.ReasonDegraded:
			degraded++
			if in.Coverage >= minCov {
				t.Errorf("rejected snapshot had coverage %v >= threshold", in.Coverage)
			}
		case rgauge.ReasonBreaker:
			breakers++
			if in.ReopenAt <= in.TriggeredAt {
				t.Errorf("breaker incident re-arms at %v, before it opened at %v", in.ReopenAt, in.TriggeredAt)
			}
		default:
			t.Errorf("incident with replan reason %v", in.Reason)
		}
	}
	if degraded < 4 || breakers < 1 {
		t.Errorf("incidents = %d degraded + %d breaker, want >= 4 and >= 1", degraded, breakers)
	}
	// Rejected snapshots still cost probe bytes: the bill covers them.
	if ctl.TotalCost().BytesTransferred <= ev.Cost.BytesTransferred {
		t.Error("TotalCost omits the rejected snapshots' probe traffic")
	}
}

// TestLastKnownGoodFillsUnmeasurablePairs: a snapshot at exactly the
// coverage threshold is accepted, and its unmeasurable pairs replan on
// their last-known-good value — before any measurement, the prediction
// the controller started from — instead of a fabricated zero.
func TestLastKnownGoodFillsUnmeasurablePairs(t *testing.T) {
	sim := frozenSim(5, 54)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 54), rgauge.Config{
		Enabled: true, EpochS: 5, StaleAfterS: 30, CooldownS: 10,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	// DC 4 partitioned across the snapshot window: 8 of 20 pairs
	// unmeasurable, coverage exactly 0.6 — at the default threshold,
	// so the swap proceeds with filled rows.
	sim.PartitionDC(4, 29, 1e9)
	sim.RunFor(40)

	if got := ctl.Replans(); got != 1 {
		t.Fatalf("replans = %d, want 1 (coverage 0.6 meets the 0.6 threshold)", got)
	}
	ev := ctl.Events()[0]
	if ev.Coverage != 0.6 {
		t.Errorf("event coverage = %v, want 0.6", ev.Coverage)
	}
	got := prediction(ctl)
	for j := 0; j < 4; j++ {
		// The partitioned DC's pairs measured nothing; the filled
		// prediction must carry the starting prediction verbatim.
		if got[4][j] != pred[4][j] || got[j][4] != pred[j][4] {
			t.Errorf("unmeasurable pair (4,%d): pred %v/%v, want last-known-good %v/%v",
				j, got[4][j], got[j][4], pred[4][j], pred[j][4])
		}
		if got[4][j] == 0 {
			t.Errorf("unmeasurable pair (4,%d) replanned on zero", j)
		}
	}
	if g := ctl.Gauge(); g.FusedPairs != 8 || g.UnmeasurablePairs != 8 {
		t.Errorf("gauge fused/unmeasurable = %d/%d, want 8/8", g.FusedPairs, g.UnmeasurablePairs)
	}
}

// TestNoSwapBelowCoverageThresholdProperty is the seed-swept property
// lock: whatever the fault timing does to coverage, every applied
// drift/staleness swap consumed a snapshot at or above minCoverage and
// every rejection was below it. (Evacuation swaps are exempt by design
// — see TestEvacuationBypassesCoverageGate — but these scenarios only
// partition DCs, never kill VMs, so none fire here.)
func TestNoSwapBelowCoverageThresholdProperty(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		sim := frozenSim(4, seed)
		pred := accuratePred(sim)
		agents := deployAgents(sim, tightRows(sim, pred))
		ctl := rgauge.Start(deps(sim, agents, seed), rgauge.Config{
			Enabled: true, EpochS: 5, StaleAfterS: 15, CooldownS: 5,
		}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))

		// Rolling partitions with varying overlap of the 1 s snapshot
		// windows (those open at 15+5k); some snapshots die, some
		// squeak through, some are clean.
		sim.PartitionDC(1, 14.5, 36)
		sim.PartitionDC(2, 35.2, 55)
		sim.PartitionDC(3, 60, 75.8)
		sim.RunFor(120)

		if ctl.Replans() == 0 {
			t.Errorf("seed %d: scenario produced no replans at all", seed)
		}
		for _, ev := range ctl.Events() {
			if ev.Reason != rgauge.ReasonEvacuate && ev.Coverage < 0.6 {
				t.Errorf("seed %d: swap at t=%.0f consumed coverage %.2f < 0.6", seed, ev.AppliedAt, ev.Coverage)
			}
		}
		for _, in := range ctl.Incidents() {
			if in.Reason == rgauge.ReasonDegraded && in.Coverage >= 0.6 {
				t.Errorf("seed %d: rejection at t=%.0f had coverage %.2f >= 0.6", seed, in.AppliedAt, in.Coverage)
			}
		}
		ctl.Stop()
	}
}

// TestEvacuationBypassesCoverageGate is the regression lock for the
// one sanctioned coverage-gate exception: a dead DC makes its own 2/n
// of the ordered pairs unmeasurable, so on a 3-DC cluster the
// evacuation snapshot can never clear the 0.6 default — and since
// beginRegauge marks the DC handled when the replan *starts*, a gated
// rejection would strand the dead DC in the plan forever. The hardened
// controller must swap the evacuation anyway, filling the unmeasurable
// pairs with their last-known-good values and zeroing the dead DC,
// without recording a degraded incident or advancing the breaker.
func TestEvacuationBypassesCoverageGate(t *testing.T) {
	sim := frozenSim(3, 56)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 56), rgauge.Config{
		// Cooldown and hysteresis high enough that nothing else can
		// replan inside this run: any event is the evacuation.
		Enabled: true, EpochS: 5, CooldownS: 1000, HysteresisEpochs: 100,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	for _, vm := range sim.VMsOfDC(2) {
		sim.KillVM(vm, 7)
	}
	sim.RunFor(120)

	if got := ctl.Replans(); got != 1 {
		t.Fatalf("DC death fired %d replans, want exactly 1 (coverage gate must not reject the evacuation)", got)
	}
	ev := ctl.Events()[0]
	if ev.Reason != rgauge.ReasonEvacuate || !reflect.DeepEqual(ev.EvacuatedDCs, []int{2}) {
		t.Errorf("replan = %+v, want evacuation of DC2", ev)
	}
	if ev.Coverage >= 0.6 {
		t.Errorf("evacuation snapshot coverage = %v, want below the 0.6 gate (the scenario must exercise the bypass)", ev.Coverage)
	}
	if n := len(ctl.Incidents()); n != 0 {
		t.Errorf("evacuation recorded %d incidents, want 0 (the bypass is not a rejection)", n)
	}
	if ctl.Degraded() {
		t.Error("controller degraded after a clean evacuation")
	}
	newPred := prediction(ctl)
	for j := 0; j < sim.NumDCs(); j++ {
		if newPred[2][j] != 0 || newPred[j][2] != 0 {
			t.Errorf("evacuated pred keeps bandwidth through dead DC2: pred[2][%d]=%.0f pred[%d][2]=%.0f",
				j, newPred[2][j], j, newPred[j][2])
		}
	}
	if newPred[0][1] == 0 || newPred[1][0] == 0 {
		t.Errorf("surviving pair replanned on zero bandwidth: %v/%v", newPred[0][1], newPred[1][0])
	}
}

// TestHardenedDeterminism: the full degraded/breaker history is a pure
// function of the seed.
func TestHardenedDeterminism(t *testing.T) {
	run := func() ([]rgauge.Event, []rgauge.Event, bwmatrix.Matrix) {
		sim := frozenSim(4, 55)
		pred := accuratePred(sim)
		agents := deployAgents(sim, tightRows(sim, pred))
		ctl := rgauge.Start(deps(sim, agents, 55), rgauge.Config{
			Enabled: true, EpochS: 5, StaleAfterS: 15, CooldownS: 5,
		}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
		defer ctl.Stop()
		sim.PartitionDC(1, 14.5, 40)
		sim.PartitionDC(2, 14.5, 40)
		sim.RunFor(90)
		return ctl.Events(), ctl.Incidents(), prediction(ctl)
	}
	ev1, in1, pred1 := run()
	ev2, in2, pred2 := run()
	if len(in1) == 0 {
		t.Fatal("scenario produced no incidents")
	}
	assertDeepEqual(t, "events", ev1, ev2)
	assertDeepEqual(t, "incidents", in1, in2)
	assertDeepEqual(t, "pred", pred1, pred2)
}

// TestHardenedFieldIsIgnored: Config.Hardened selects nothing. With it
// set or clear, a controller replans, refuses snapshots and fills pairs
// identically, on a drifting healthy network and across a partition
// that poisons its snapshots.
func TestHardenedFieldIsIgnored(t *testing.T) {
	type history struct {
		events, incidents []rgauge.Event
		gauge             rgauge.GaugeStats
		pred              bwmatrix.Matrix
	}
	for _, sc := range []struct {
		name     string
		cfg      rgauge.Config
		scenario func(sim *netsim.Sim, agents []*agent.Agent) (stop func())
	}{
		{"drift", rgauge.Config{Enabled: true, EpochS: 5}, func(sim *netsim.Sim, agents []*agent.Agent) func() {
			f := steadyFlow(sim, agents, 0, 1, 1e12)
			sim.RunFor(12)
			sim.SetPairLimit(0, 1, 250)
			sim.RunFor(60)
			return f.Stop
		}},
		{"partition", rgauge.Config{Enabled: true, EpochS: 5, StaleAfterS: 15, CooldownS: 5}, func(sim *netsim.Sim, _ []*agent.Agent) func() {
			sim.PartitionDC(1, 14.5, 40)
			sim.PartitionDC(2, 14.5, 40)
			sim.RunFor(90)
			return func() {}
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			run := func(hardened bool) history {
				sim := frozenSim(4, 56)
				pred := accuratePred(sim)
				agents := deployAgents(sim, tightRows(sim, pred))
				cfg := sc.cfg
				cfg.Hardened = hardened
				ctl := rgauge.Start(deps(sim, agents, 56), cfg, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
				defer ctl.Stop()
				stop := sc.scenario(sim, agents)
				defer stop()
				return history{ctl.Events(), ctl.Incidents(), ctl.Gauge(), prediction(ctl)}
			}
			clear, set := run(false), run(true)
			if len(clear.events) == 0 {
				t.Fatal("scenario never replanned")
			}
			if sc.name == "partition" && len(clear.incidents) == 0 {
				t.Fatal("partition refused no snapshot")
			}
			for _, ev := range clear.events {
				if ev.Coverage < 0.6 {
					t.Errorf("replan %s consumed a %.0f%%-coverage snapshot", ev, ev.Coverage*100)
				}
			}
			assertDeepEqual(t, "events", clear.events, set.events)
			assertDeepEqual(t, "incidents", clear.incidents, set.incidents)
			assertDeepEqual(t, "gauge", clear.gauge, set.gauge)
			assertDeepEqual(t, "pred", clear.pred, set.pred)
		})
	}
}

func assertDeepEqual(t *testing.T, what string, a, b interface{}) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s diverge:\n%v\n%v", what, a, b)
	}
}
