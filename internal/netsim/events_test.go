package netsim

import (
	"cmp"
	"slices"
	"testing"

	"github.com/wanify/wanify/internal/simrand"
)

// TestEventHeapsFireInSeqOrder drains the two event heaps, timers and
// ramp boundaries, the way stepOnce does (nextEvent, then pop the heap
// it names) and checks the merged order is the single total (at, seq)
// order one heap of both kinds would give: many instants collide, and
// seq, shared by both heaps, breaks every tie.
func TestEventHeapsFireInSeqOrder(t *testing.T) {
	rng := simrand.Derive(1, "event-heaps")
	s := frozenSim(2, 1)
	type key struct {
		at   float64
		seq  int64
		ramp bool
	}
	var want []key
	for k := 0; k < 500; k++ {
		at := float64(rng.IntN(40)) / 4
		s.timerSeq++
		ramp := rng.Bool(0.6)
		if ramp {
			s.ramps.push(event[*Flow]{at: at, seq: s.timerSeq})
		} else {
			s.timers.push(event[func(now float64)]{at: at, seq: s.timerSeq})
		}
		want = append(want, key{at, s.timerSeq, ramp})
	}
	slices.SortFunc(want, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	for i, w := range want {
		at, ramp, ok := s.nextEvent()
		if !ok || at != w.at || ramp != w.ramp {
			t.Fatalf("event %d: next is (%v, ramp %v, ok %v), want (%v, ramp %v)", i, at, ramp, ok, w.at, w.ramp)
		}
		var seq int64
		if ramp {
			seq = s.ramps.pop().seq
		} else {
			seq = s.timers.pop().seq
		}
		if seq != w.seq {
			t.Fatalf("event %d: popped seq %d, want %d", i, seq, w.seq)
		}
	}
	if _, _, ok := s.nextEvent(); ok {
		t.Fatal("events left after draining every one")
	}
}

// TestStartFlowSteadyStateAllocs runs a sized flow from StartFlow
// through its three ramp boundaries to its completion callback on a
// warm simulator: it allocates exactly one object, the *Flow. The
// boundaries are entries of their own heap, not a closure each.
func TestStartFlowSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	s := frozenSim(3, 1)
	src, dst := s.FirstVMOfDC(0), s.FirstVMOfDC(1)
	done := 0
	onDone := func() { done++ }
	run := func() {
		s.StartFlow(src, dst, 2, 50e6, onDone)
		s.RunFor(60)
	}
	run() // warm: the flow lists, both heaps, the fill scratch
	if s.ActiveFlows() != 0 || len(s.ramps) != 0 || done != 1 {
		t.Fatalf("warm-up flow not finished: %d active, %d ramp boundaries pending, %d done", s.ActiveFlows(), len(s.ramps), done)
	}
	if got := testing.AllocsPerRun(50, run); got != 1 {
		t.Errorf("a flow's lifetime allocates %v objects, want 1 (the *Flow)", got)
	}
	if done != 52 {
		t.Errorf("%d flows completed, want 52", done)
	}
}
