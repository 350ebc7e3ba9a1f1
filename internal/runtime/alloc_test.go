package runtime_test

import (
	"reflect"
	"testing"

	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/substrate"
)

// reusingDeps are deps whose hooks allocate no more than a deployment's
// do: Predict copies the snapshot into one matrix it rewrites every
// call (Deps.Predict's result is borrowed), and Optimize keeps its
// interior scratch, so only the plan itself is fresh per replan.
func reusingDeps(sim *netsim.Sim, agents []*agent.Agent, seed uint64) rgauge.Deps {
	d := deps(sim, agents, seed)
	pred := bwmatrix.New(sim.NumDCs())
	d.Predict = func(snap bwmatrix.Matrix, _ []substrate.VMStats) bwmatrix.Matrix {
		for i := range snap {
			copy(pred[i], snap[i])
		}
		return pred
	}
	var scratch optimize.Scratch
	d.Optimize = func(p bwmatrix.Matrix) optimize.Plan {
		var plan optimize.Plan
		optimize.GlobalOptimizeInto(&plan, p, optimize.Options{}, &scratch)
		return plan
	}
	return d
}

// warmController runs a controller over n frozen DCs with a
// steady transfer on every pair until its agents and its own epochs
// have run: the state every steady-state test below starts from.
func warmController(tb testing.TB, n int, seed uint64) (*netsim.Sim, *rgauge.Controller, func()) {
	tb.Helper()
	sim := frozenSim(n, seed)
	pred := accuratePred(sim)
	agents := deployAgents(sim, tightRows(sim, pred))
	ctl := rgauge.Start(reusingDeps(sim, agents, seed), rgauge.Config{
		Enabled: true, EpochS: 5,
	}, pred, optimize.GlobalOptimize(pred, optimize.Options{}))
	var flows []substrate.Flow
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				flows = append(flows, steadyFlow(sim, agents, i, j, 1e15))
			}
		}
	}
	sim.RunFor(20)
	return sim, ctl, func() {
		ctl.Stop()
		for _, f := range flows {
			f.Stop()
		}
	}
}

// TestWarmControllerEpochAllocatesNothing: once its first epoch has
// sized the live, expected and demand matrices, a controller tick —
// every agent's monitor, target and in-flight counts summed, the drift
// check — allocates nothing, with the agents attached and transfers in
// flight on every pair.
func TestWarmControllerEpochAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	sim, ctl, stop := warmController(t, 4, 61)
	defer stop()
	if live := ctl.Live(); live == nil || live[0][1] <= 0 {
		t.Fatalf("no controller epoch aggregated a monitored rate while warming: %v", live)
	}
	if got := testing.AllocsPerRun(50, ctl.Epoch); got != 0 {
		t.Errorf("a warm controller epoch allocates %.0f objects, want 0", got)
	}
	if ctl.Replans() != 0 || ctl.DriftEpochs() != 0 || sim.ActiveFlows() == 0 {
		t.Fatalf("%d replans, %d drift epochs, %d flows: the epochs measured were not steady ones over live transfers", ctl.Replans(), ctl.DriftEpochs(), sim.ActiveFlows())
	}
}

// replanFixedObjs is what a warm replan allocates beyond its
// probe flows (one object each, netsim): the snapshot's noise stream
// (SnapshotOpts: three), the swap timer's closure (one), the one copy
// of the prediction the controller keeps (two), the fresh plan that
// escapes into CurrentPlan (MinConns, MaxConns, MinBW, MaxBW and DCRel,
// two objects each) and one of slack for the event record's and the
// timer queue's amortized growth. The snapshot's pair list, chains,
// first-segment slab, samples, accumulators and matrix (the fill
// writes into it), the chunk rows and the hooks' buffers are all
// reused: a change that rebuilds one of them, or copies the prediction
// again, breaks it.
const replanFixedObjs = 17

// TestWarmHardenedReplanAllocBudget: a replan, snapshot through
// swap, allocates its probe flows and replanFixedObjs more — nothing
// that grows with the agents, the pairs' chains or the collection.
func TestWarmHardenedReplanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	sim, ctl, stop := warmController(t, 4, 62)
	defer stop()
	replan := func() {
		ctl.Regauge()
		sim.RunFor(1)
	}
	replan() // warm: the snapshot and chunk rows are sized
	before := ctl.Replans()
	got := testing.AllocsPerRun(20, replan)
	if ctl.Replans()-before != 21 {
		t.Fatalf("%d replans applied, want 21", ctl.Replans()-before)
	}
	probes := float64(sim.NumDCs() * (sim.NumDCs() - 1))
	if budget := probes + replanFixedObjs; got > budget {
		t.Errorf("a warm replan allocates %.0f objects, budget %.0f (%.0f probe flows + %d)", got, budget, probes, replanFixedObjs)
	} else {
		t.Logf("warm replan: %.0f objects (%.0f probe flows)", got, probes)
	}
}

// TestReplanLeavesEarlierReadsAlone: what a caller read before a replan
// — Live's copy, Belief's uncopied matrix, an Event — reads the same after it, although the controller rewrites
// its epoch matrices, snapshot and Predict's result in
// place.
func TestReplanLeavesEarlierReadsAlone(t *testing.T) {
	sim, ctl, stop := warmController(t, 4, 63)
	defer stop()
	ctl.Regauge()
	sim.RunFor(1)
	live := ctl.Live()
	belief, _ := ctl.Belief()
	events := ctl.Events()
	want := struct {
		live, belief bwmatrix.Matrix
		event        rgauge.Event
	}{live.Clone(), belief.Clone(), events[0]}

	sim.SetPairLimit(0, 1, 200) // the next snapshot and epochs read differently
	for k := 0; k < 3; k++ {
		sim.RunFor(5)
		ctl.Regauge()
		sim.RunFor(1)
	}
	if ctl.Replans() != 4 {
		t.Fatalf("%d replans, want 4", ctl.Replans())
	}
	if now, _ := ctl.Belief(); reflect.DeepEqual(now, want.belief) {
		t.Fatal("the later replans left the prediction as it was: the test shows nothing")
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Live", live, want.live},
		{"Belief", belief, want.belief},
		{"Events()[0]", events[0], want.event},
		{"Events()[0] re-read", ctl.Events()[0], want.event},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s read before the replans changed after them", c.name)
		}
	}
}

// BenchmarkController times the controller's two steady-state paths on
// four frozen DCs with a transfer on every pair: one epoch tick
// (aggregate + drift check) and one replan (snapshot begun,
// one probe window of simulation, collect, fill, predict, optimize,
// swap). With -benchmem it shows what each allocates.
func BenchmarkController(b *testing.B) {
	b.Run("epoch", func(b *testing.B) {
		_, ctl, stop := warmController(b, 4, 64)
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.Epoch()
		}
	})
	b.Run("replan", func(b *testing.B) {
		sim, ctl, stop := warmController(b, 4, 65)
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.Regauge()
			sim.RunFor(1)
		}
	})
}
