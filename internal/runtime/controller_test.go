package runtime_test

import (
	"reflect"
	"testing"

	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

func frozenSim(n int, seed uint64) *netsim.Sim {
	cfg := netsim.UniformCluster(geo.TestbedSubset(n), substrate.T2Medium, seed)
	cfg.Frozen = true
	return netsim.NewSim(cfg)
}

// accuratePred returns a prediction matrix equal to the simulator's
// actual per-connection caps: a plan built on it promises exactly what
// a single connection delivers.
func accuratePred(sim *netsim.Sim) bwmatrix.Matrix {
	n := sim.NumDCs()
	out := bwmatrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				out[i][j] = sim.PerConnCapMbps(i, j)
			}
		}
	}
	return out
}

// tightRows builds per-VM rows with a collapsed [1, 1] window and
// targets equal to pred — the monitored rate of an uncontended
// single-connection flow matches its target exactly, so a stable
// network produces zero drift.
func tightRows(sim *netsim.Sim, pred bwmatrix.Matrix) map[substrate.VMID]agent.PlanRow {
	n := sim.NumDCs()
	rows := make(map[substrate.VMID]agent.PlanRow)
	for dc := 0; dc < n; dc++ {
		for _, vm := range sim.VMsOfDC(dc) {
			row := agent.PlanRow{
				MinConns: make([]int, n), MaxConns: make([]int, n),
				MinBW: make([]float64, n), MaxBW: make([]float64, n),
				PredBW: make([]float64, n),
			}
			for j := 0; j < n; j++ {
				row.MinConns[j], row.MaxConns[j] = 1, 1
				if j != dc {
					row.PredBW[j] = pred[dc][j]
					row.MinBW[j] = pred[dc][j]
					row.MaxBW[j] = pred[dc][j]
				}
			}
			rows[vm] = row
		}
	}
	return rows
}

func deployAgents(sim *netsim.Sim, rows map[substrate.VMID]agent.PlanRow) []*agent.Agent {
	var out []*agent.Agent
	for dc := 0; dc < sim.NumDCs(); dc++ {
		for _, vm := range sim.VMsOfDC(dc) {
			a := agent.New(sim, vm, agent.Config{})
			a.ApplyPlan(rows[vm])
			a.Start()
			out = append(out, a)
		}
	}
	return out
}

// deps wires fake predict/optimize hooks: the snapshot itself becomes
// the prediction (no model), and optimization is the real Algorithm 1.
func deps(sim *netsim.Sim, agents []*agent.Agent, seed uint64) rgauge.Deps {
	rng := simrand.Derive(seed, "controller-test")
	return rgauge.Deps{
		Cluster: sim,
		Agents:  agents,
		SnapshotOpts: func() measure.Options {
			return measure.SnapshotOptions(rng.Derive("snapshot"))
		},
		Predict: func(snap bwmatrix.Matrix, stats []substrate.VMStats) bwmatrix.Matrix {
			return snap.Clone()
		},
		Optimize: func(pred bwmatrix.Matrix) optimize.Plan {
			return optimize.GlobalOptimize(pred, optimize.Options{})
		},
	}
}

// steadyFlow starts a long transfer on the pair and registers it with
// the source agent so the WAN monitor sees its bytes.
func steadyFlow(sim *netsim.Sim, agents []*agent.Agent, srcDC, dstDC int, bytes float64) substrate.Flow {
	src := sim.FirstVMOfDC(srcDC)
	f := sim.StartFlow(src, sim.FirstVMOfDC(dstDC), 1, bytes, nil)
	for _, a := range agents {
		if a.VM() == src {
			a.Register(f)
		}
	}
	return f
}

// TestStableNetworkNoReplanChurn is the core churn invariant: on a
// frozen network whose plan promises exactly what links deliver, the
// controller observes many epochs and never replans.
func TestStableNetworkNoReplanChurn(t *testing.T) {
	sim := frozenSim(3, 1)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 1), rgauge.Config{
		Enabled: true, EpochS: 5,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	f := steadyFlow(sim, agents, 0, 1, 1e12)
	defer f.Stop()
	sim.RunFor(120) // 24 controller epochs

	if got := ctl.Replans(); got != 0 {
		t.Errorf("stable network replanned %d times", got)
	}
	if got := ctl.DriftEpochs(); got != 0 {
		t.Errorf("stable network counted %d drift epochs", got)
	}
	if live := ctl.Live(); live == nil || live[0][1] < 100 {
		t.Errorf("controller did not aggregate live rates: %v", live)
	}
}

// TestDriftTriggersReplanAndSwapsWindows degrades a link mid-run and
// checks the full loop: persistent drift arms the trigger, a snapshot
// is taken, and the new plan's windows land on the running agents.
func TestDriftTriggersReplanAndSwapsWindows(t *testing.T) {
	sim := frozenSim(3, 2)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 2), rgauge.Config{
		Enabled: true, EpochS: 5, CooldownS: 10,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	f := steadyFlow(sim, agents, 0, 1, 1e12)
	defer f.Stop()
	sim.RunFor(12) // healthy epochs first

	sim.SetPairLimit(0, 1, 300) // the 1700 Mbps link collapses
	sim.RunFor(40)

	if got := ctl.Replans(); got < 1 {
		t.Fatalf("no replan after persistent drift (driftEpochs=%d)", ctl.DriftEpochs())
	}
	ev := ctl.Events()[0]
	if ev.Reason != rgauge.ReasonDrift {
		t.Errorf("replan reason = %v, want drift", ev.Reason)
	}
	if ev.DriftedPairs < 1 || ev.MaxDriftFrac < 0.3 {
		t.Errorf("event records no drift: %+v", ev)
	}
	if ev.AppliedAt <= ev.TriggeredAt {
		t.Errorf("swap applied at %v, triggered at %v", ev.AppliedAt, ev.TriggeredAt)
	}
	if ev.Cost.BytesTransferred <= 0 {
		t.Errorf("re-gauge snapshot moved no probe bytes")
	}
	// The re-gauged prediction reflects the degraded link, and the
	// degraded pair's new window landed on the agent.
	newPred := prediction(ctl)
	if newPred[0][1] >= pred[0][1]*0.5 {
		t.Errorf("re-gauged pred[0][1] = %.0f, want well below the original %.0f", newPred[0][1], pred[0][1])
	}
	plan := ctl.CurrentPlan()
	for _, a := range agents {
		if a.DC() != 0 {
			continue
		}
		c := a.Conns()[1]
		if c < plan.MinConns[0][1] || c > plan.MaxConns[0][1] {
			t.Errorf("agent conns[1] = %d outside swapped window [%d, %d]",
				c, plan.MinConns[0][1], plan.MaxConns[0][1])
		}
	}
}

// TestBlackoutStillTriggersReplan pins the dead-link case: a pair
// whose live rate collapses below the minActiveMbps floor while
// transfers are still in flight must count as drifted (demand present,
// nothing delivered), not as idle.
func TestBlackoutStillTriggersReplan(t *testing.T) {
	sim := frozenSim(3, 21)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 21), rgauge.Config{
		Enabled: true, EpochS: 5, CooldownS: 10,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	f := steadyFlow(sim, agents, 0, 1, 1e12)
	defer f.Stop()
	sim.RunFor(12)

	sim.SetPairLimit(0, 1, 1) // blackout: ~1 Mbps, far below the 5 Mbps floor
	sim.RunFor(40)

	if got := ctl.Replans(); got < 1 {
		t.Fatalf("blackout hid below the activity floor: no replan (driftEpochs=%d)", ctl.DriftEpochs())
	}
	if ev := ctl.Events()[0]; ev.Reason != rgauge.ReasonDrift {
		t.Errorf("blackout replan reason = %v, want drift", ev.Reason)
	}
}

// TestHysteresisIgnoresTransientBlip checks a one-epoch dip does not
// replan: the streak resets before reaching HysteresisEpochs.
func TestHysteresisIgnoresTransientBlip(t *testing.T) {
	sim := frozenSim(3, 3)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 3), rgauge.Config{
		Enabled: true, EpochS: 5, HysteresisEpochs: 3,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	f := steadyFlow(sim, agents, 0, 1, 1e12)
	defer f.Stop()
	sim.RunFor(11)

	sim.SetPairLimit(0, 1, 300)
	sim.RunFor(5) // exactly one degraded controller epoch
	sim.ClearPairLimit(0, 1)
	sim.RunFor(60)

	if got := ctl.Replans(); got != 0 {
		t.Errorf("transient blip caused %d replans", got)
	}
	if got := ctl.DriftEpochs(); got == 0 {
		t.Errorf("blip not observed at all (expected 1-2 drift epochs)")
	}
}

// TestStalenessClockForcesReplan checks the drift-free path: with
// StaleAfterS set, an idle deployment still re-gauges periodically.
func TestStalenessClockForcesReplan(t *testing.T) {
	sim := frozenSim(3, 4)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 4), rgauge.Config{
		Enabled: true, EpochS: 5, StaleAfterS: 30, CooldownS: 10,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	sim.RunFor(100)
	if got := ctl.Replans(); got < 2 {
		t.Fatalf("staleness clock fired %d replans over 100s with StaleAfterS=30", got)
	}
	for _, ev := range ctl.Events() {
		if ev.Reason != rgauge.ReasonStale {
			t.Errorf("idle replan reason = %v, want stale", ev.Reason)
		}
		if ev.DriftedPairs != 0 {
			t.Errorf("idle replan records %d drifted pairs", ev.DriftedPairs)
		}
	}
}

// TestConservationAcrossPlanSwap checks no bytes are lost or invented
// when windows swap mid-transfer: every sized flow still delivers
// exactly its payload.
func TestConservationAcrossPlanSwap(t *testing.T) {
	sim := frozenSim(3, 6)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 6), rgauge.Config{
		Enabled: true, EpochS: 5, StaleAfterS: 15, CooldownS: 5,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	const payload = 40e9 // ~3 min at 1700 Mbps: several swaps happen mid-flight
	f1 := steadyFlow(sim, agents, 0, 1, payload)
	f2 := steadyFlow(sim, agents, 1, 2, payload)
	if err := sim.AwaitFlows(3600, f1, f2); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Replans(); got < 1 {
		t.Fatalf("scenario exercised no plan swap")
	}
	for i, f := range []substrate.Flow{f1, f2} {
		if got := f.TransferredBytes(); got < payload-1 || got > payload+1 {
			t.Errorf("flow %d delivered %.0f bytes, want %.0f", i, got, payload)
		}
	}
}

// TestDeterminism runs an identical drift scenario twice and demands
// byte-identical controller histories and final predictions.
func TestDeterminism(t *testing.T) {
	run := func() ([]rgauge.Event, bwmatrix.Matrix) {
		sim := frozenSim(3, 7)
		pred := accuratePred(sim)
		agents := deployAgents(sim, tightRows(sim, pred))
		ctl := rgauge.Start(deps(sim, agents, 7), rgauge.Config{
			Enabled: true, EpochS: 5,
		}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
		defer ctl.Stop()
		f := steadyFlow(sim, agents, 0, 1, 1e12)
		defer f.Stop()
		sim.RunFor(12)
		sim.SetPairLimit(0, 1, 250)
		sim.RunFor(60)
		return ctl.Events(), prediction(ctl)
	}
	ev1, pred1 := run()
	ev2, pred2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("event histories diverge:\n%v\n%v", ev1, ev2)
	}
	if !reflect.DeepEqual(pred1, pred2) {
		t.Errorf("final predictions diverge")
	}
	if len(ev1) == 0 {
		t.Fatalf("determinism scenario produced no events")
	}
}

// TestStopMidSnapshotAbandonsProbes stops the controller while a
// re-gauge snapshot is in flight: the probes are torn down, no swap is
// applied, and the simulation keeps running cleanly.
func TestStopMidSnapshotAbandonsProbes(t *testing.T) {
	sim := frozenSim(3, 8)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 8), rgauge.Config{
		Enabled: true, EpochS: 5, StaleAfterS: 10,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))

	// StaleAfterS=10 with cooldown 10: the trigger arms at the t=10
	// epoch and the snapshot window is (10, 11]. Stop inside it.
	sim.RunFor(10.5)
	if sim.ActiveFlows() == 0 {
		t.Fatalf("no probes in flight at t=10.5 (trigger did not arm)")
	}
	ctl.Stop()
	if got := sim.ActiveFlows(); got != 0 {
		t.Errorf("%d probes left after Stop", got)
	}
	sim.RunFor(20) // the orphaned swap timer must be a no-op
	if got := ctl.Replans(); got != 0 {
		t.Errorf("replan applied after Stop")
	}
	for _, a := range agents {
		a.Stop()
	}
}

// TestEvacuationBypassesCooldown kills every VM of one DC and checks
// the controller fires an evacuation replan at the very next epoch —
// through a cooldown and hysteresis that would block any drift or
// staleness trigger — zeroes the dead DC out of the prediction, and
// never fires for the same DC twice.
func TestEvacuationBypassesCooldown(t *testing.T) {
	sim := frozenSim(3, 41)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 41), rgauge.Config{
		// Cooldown and hysteresis high enough that nothing else can
		// possibly replan inside this run: any event is the evacuation.
		Enabled: true, EpochS: 5, CooldownS: 1000, HysteresisEpochs: 100,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	for _, vm := range sim.VMsOfDC(2) {
		sim.KillVM(vm, 7)
	}
	sim.RunFor(120)

	if got := ctl.Replans(); got != 1 {
		t.Fatalf("DC death fired %d replans, want exactly 1 (deadHandled must stop re-fires)", got)
	}
	ev := ctl.Events()[0]
	if ev.Reason != rgauge.ReasonEvacuate {
		t.Errorf("replan reason = %v, want evacuate", ev.Reason)
	}
	if !reflect.DeepEqual(ev.EvacuatedDCs, []int{2}) {
		t.Errorf("EvacuatedDCs = %v, want [2]", ev.EvacuatedDCs)
	}
	// Kill at t=7, epochs every 5s: the t=10 epoch must trigger despite
	// the 1000s cooldown.
	if ev.TriggeredAt != 10 {
		t.Errorf("evacuation triggered at t=%v, want the first epoch after death (t=10)", ev.TriggeredAt)
	}
	newPred := prediction(ctl)
	for j := 0; j < sim.NumDCs(); j++ {
		if newPred[2][j] != 0 || newPred[j][2] != 0 {
			t.Errorf("evacuated pred keeps bandwidth through dead DC2: pred[2][%d]=%.0f pred[%d][2]=%.0f",
				j, newPred[2][j], j, newPred[j][2])
		}
	}
}

// TestStaleFiresAtZeroLiveRate pins the satellite invariant: a full DC
// partition drops every live rate on its pairs to zero, and the
// staleness clock must keep firing anyway — StaleAfterS compares plan
// age, not traffic, so a silent network cannot starve re-gauging. The
// snapshots it takes find DC 1's four pairs stalled (coverage 1/3), so
// each is refused: a degraded incident at every stale instant the
// breaker leaves open, no replan, and the plan kept.
func TestStaleFiresAtZeroLiveRate(t *testing.T) {
	sim := frozenSim(3, 42)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	plan := optimize.GlobalOptimize(pred, optimize.Options{})
	ctl := rgauge.Start(deps(sim, agents, 42), rgauge.Config{
		// Hysteresis high enough that the (very real) drift signal of a
		// stalled pair never arms: every trigger here is pure staleness.
		Enabled: true, EpochS: 5, StaleAfterS: 30, CooldownS: 10,
		HysteresisEpochs: 100,
	}, pred, plan)
	defer ctl.Stop()

	f := steadyFlow(sim, agents, 0, 1, 1e12)
	defer f.Stop()
	sim.PartitionDC(1, 2, 1e9) // effectively forever; flows stall at rate 0
	sim.RunFor(100)

	if live := ctl.Live(); live == nil || live[0][1] != 0 {
		t.Fatalf("partitioned pair still shows live rate %v (scenario did not stall)", live)
	}
	// The plan never ages out of staleness, so every epoch from t=30
	// triggers, except while the breaker three rejections open holds
	// them back (t=41–61 and t=76–96); the one at t=100 is still in
	// its probe window.
	var stale []float64
	for _, in := range ctl.Incidents() {
		if in.Reason == rgauge.ReasonDegraded {
			stale = append(stale, in.TriggeredAt)
			if in.Coverage >= 0.6 {
				t.Errorf("t=%v: refused a snapshot at coverage %v", in.TriggeredAt, in.Coverage)
			}
		}
	}
	if want := []float64{30, 35, 40, 65, 70, 75}; !reflect.DeepEqual(stale, want) {
		t.Errorf("degraded incidents at t=%v, want at the stale instants %v", stale, want)
	}
	if got := ctl.Replans(); got != 0 {
		t.Errorf("%d replans from snapshots with DC 1 stalled, want 0", got)
	}
	if !reflect.DeepEqual(ctl.CurrentPlan(), plan) {
		t.Error("the plan changed although every snapshot was refused")
	}
}

// TestSecondDeadDCEvacuatesAgain checks a DC that dies after an
// evacuation gets its own: each death is one evacuation of exactly that
// DC, in death order.
func TestSecondDeadDCEvacuatesAgain(t *testing.T) {
	sim := frozenSim(3, 43)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(deps(sim, agents, 43), rgauge.Config{
		Enabled: true, EpochS: 5,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	defer ctl.Stop()

	for _, vm := range sim.VMsOfDC(1) {
		sim.KillVM(vm, 7)
	}
	for _, vm := range sim.VMsOfDC(2) {
		sim.KillVM(vm, 40)
	}
	sim.RunFor(150)

	if got := ctl.Replans(); got != 2 {
		t.Fatalf("%d replans fired across two DC deaths, want 2", got)
	}
	for k, ev := range ctl.Events() {
		if want := []int{k + 1}; ev.Reason != rgauge.ReasonEvacuate || !reflect.DeepEqual(ev.EvacuatedDCs, want) {
			t.Errorf("replan %d = %v, want evacuation of DC%d", k, ev, k+1)
		}
	}
}

// deployJobGroups starts one agent per (job, VM), each loaded with its
// job's chunk of a partitioned plan — the wanify.EnableJobSet
// deployment without the framework.
func deployJobGroups(sim *netsim.Sim, pred bwmatrix.Matrix, parts []optimize.Plan) [][]*agent.Agent {
	var groups [][]*agent.Agent
	for _, part := range parts {
		rows := agent.ChunkPlan(sim, pred, part)
		var group []*agent.Agent
		for dc := 0; dc < sim.NumDCs(); dc++ {
			for _, vm := range sim.VMsOfDC(dc) {
				a := agent.New(sim, vm, agent.Config{})
				a.ApplyPlan(rows[vm])
				a.Start()
				group = append(group, a)
			}
		}
		groups = append(groups, group)
	}
	return groups
}

// TestMultiJobRegaugeOnceAndPartition locks the arbitration contract:
// with two jobs sharing the controller, a trigger re-gauges the
// cluster ONCE (one snapshot, one optimize), partitions the new plan
// once, swaps every group in the same event, runs OnPlanSwap — and the
// per-pair sum of the jobs' connection targets never exceeds the
// global window afterwards.
func TestMultiJobRegaugeOnceAndPartition(t *testing.T) {
	sim := frozenSim(3, 31)
	pred := accuratePred(sim)
	plan := optimize.GlobalOptimize(pred, optimize.Options{})
	shares := optimize.ShareWeights(optimize.ShareFair, 2, nil, nil)
	groups := deployJobGroups(sim, pred, optimize.PartitionPlan(plan, shares))
	var union []*agent.Agent
	for _, g := range groups {
		union = append(union, g...)
	}

	var snapshots, optimizes, partitions, swaps int
	d := deps(sim, union, 31)
	baseSnap := d.SnapshotOpts
	d.SnapshotOpts = func() measure.Options {
		snapshots++
		return baseSnap()
	}
	baseOpt := d.Optimize
	d.Optimize = func(p bwmatrix.Matrix) optimize.Plan {
		optimizes++
		return baseOpt(p)
	}
	d.Groups = groups
	d.Partition = func(p optimize.Plan) []optimize.Plan {
		partitions++
		return optimize.PartitionPlan(p, shares)
	}
	d.OnPlanSwap = func(bwmatrix.Matrix, optimize.Plan) { swaps++ }

	ctl := rgauge.Start(d, rgauge.Config{
		Enabled: true, EpochS: 5, StaleAfterS: 30, CooldownS: 10,
	}, pred, plan)
	defer ctl.Stop()

	sim.RunFor(80)
	replans := ctl.Replans()
	if replans < 1 {
		t.Fatal("staleness produced no replans")
	}
	if snapshots != replans || optimizes != replans || partitions != replans || swaps != replans {
		t.Errorf("per replan want exactly one snapshot/optimize/partition/swap, got %d/%d/%d/%d over %d replans",
			snapshots, optimizes, partitions, swaps, replans)
	}

	// Oversubscription invariant after the swap: summed per-job conns
	// within the re-gauged global window on every pair.
	global := ctl.CurrentPlan()
	n := sim.NumDCs()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sum := 0
			for _, g := range groups {
				for _, a := range g {
					if a.DC() == i {
						sum += a.Conns()[j]
					}
				}
			}
			if sum > global.MaxConns[i][j] {
				t.Errorf("pair (%d,%d): jobs hold %d conns > global window %d",
					i, j, sum, global.MaxConns[i][j])
			}
		}
	}
	for _, g := range groups {
		for _, a := range g {
			a.Stop()
		}
	}
}

// TestMultiJobAggregatesLiveAcrossJobs checks the live matrix the
// controller compares against the plan is the SUM of all jobs' rates
// per pair: two jobs each moving half a link's traffic must not look
// like cluster-wide drift.
func TestMultiJobAggregatesLiveAcrossJobs(t *testing.T) {
	sim := frozenSim(3, 32)
	pred := accuratePred(sim)
	plan := optimize.GlobalOptimize(pred, optimize.Options{})
	shares := optimize.ShareWeights(optimize.ShareFair, 2, nil, nil)
	groups := deployJobGroups(sim, pred, optimize.PartitionPlan(plan, shares))
	var union []*agent.Agent
	for _, g := range groups {
		union = append(union, g...)
	}
	d := deps(sim, union, 32)
	d.Groups = groups
	d.Partition = func(p optimize.Plan) []optimize.Plan {
		return optimize.PartitionPlan(p, shares)
	}
	ctl := rgauge.Start(d, rgauge.Config{Enabled: true, EpochS: 5}, pred, plan)
	defer ctl.Stop()

	// One long flow per job on the same pair; each is registered with
	// its own job's source agent.
	src := sim.FirstVMOfDC(0)
	for _, g := range groups {
		f := sim.StartFlow(src, sim.FirstVMOfDC(1), 1, 1e12, nil)
		for _, a := range g {
			if a.VM() == src {
				a.Register(f)
			}
		}
		defer f.Stop()
	}
	sim.RunFor(16)

	live := ctl.Live()
	if live == nil {
		t.Fatal("no live matrix after controller epochs")
	}
	pairRate := sim.PairRate(0, 1)
	if live[0][1] < pairRate*0.8 || live[0][1] > pairRate*1.2 {
		t.Errorf("aggregated live[0][1] = %.0f Mbps, want the pair's total ~%.0f (both jobs summed)",
			live[0][1], pairRate)
	}
}

// prediction copies the prediction the controller's active plan was
// built from.
func prediction(ctl *rgauge.Controller) bwmatrix.Matrix {
	pred, _ := ctl.Belief()
	return pred.Clone()
}
