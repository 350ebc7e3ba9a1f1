package measure

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// probeLog wraps a cluster and records every probe started through it,
// with the origin bench/decorate.go would attribute it to.
type probeLog struct {
	substrate.Cluster
	probes []substrate.Flow
	origin []string
}

func (c *probeLog) StartProbe(src, dst substrate.VMID, conns int) substrate.Flow {
	c.origin = append(c.origin, probeOrigin())
	f := c.Cluster.StartProbe(src, dst, conns)
	c.probes = append(c.probes, f)
	return f
}

// failed counts the recorded probes a fault terminated.
func (c *probeLog) failed() int {
	n := 0
	for _, f := range c.probes {
		if f.Failed() {
			n++
		}
	}
	return n
}

// probeOrigin is bench/decorate.go's walk, called the same way (from
// StartProbe): the six frames above StartProbe, nearest first, name a
// snapshot probe when one is measure.BeginSnapshot*, a retry when one
// is armRetry.
func probeOrigin() string {
	var pcs [6]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		switch {
		case strings.Contains(f.Function, "measure.BeginSnapshot"):
			return "snapshot"
		case strings.Contains(f.Function, "armRetry"):
			return "retry"
		case !more:
			return ""
		}
	}
}

// TestProbeOriginFrames pins the function-name contract the repository
// benchmark counts snapshots and retries by: every first probe of
// BeginSnapshotInto, one-off (as Snapshot begins it) or recycled, is a
// snapshot probe, every replacement probe a retry. Renaming either
// BeginSnapshotInto or armRetry, or moving StartProbe more than six
// frames below it, fails here.
func TestProbeOriginFrames(t *testing.T) {
	sim := frozenSim(4, 19)
	sim.RunFor(5)
	c := &probeLog{Cluster: sim}
	opts := Options{DurationS: 1}
	Snapshot(c, opts)
	ps := BeginSnapshotInto(nil, c, opts)
	sim.ResetPair(0, 1, sim.Now()+0.2) // the retry starts 0.1 s later, inside the window
	c.RunFor(1)
	part := ps.Collect()
	if part.Retries() != 1 {
		t.Fatalf("retries = %d, want the reset's one", part.Retries())
	}
	var want []string
	for i := 0; i < 2*4*3; i++ {
		want = append(want, "snapshot")
	}
	want = append(want, "retry")
	if !reflect.DeepEqual(c.origin, want) {
		t.Errorf("probe origins %q, want %q", c.origin, want)
	}
}

// TestNoProbeOutlivesSnapshot: however a snapshot ends, and however
// often, no probe survives it — neither an original a fault spared nor
// a retry whose timer is still pending when the collector runs. Every
// case kills VM 2 mid-window (its four probes) and resets the pair 0→1
// so late that a retry is still scheduled when the window closes: five
// probes die, and FailedProbes must count them.
func TestNoProbeOutlivesSnapshot(t *testing.T) {
	opts := Options{DurationS: 1}
	cases := []struct {
		name string
		// run ends the snapshot and returns its FailedProbes, -1 when
		// the collector produces no bill.
		run func(t *testing.T, c substrate.Cluster) int
	}{
		{"Collect", func(t *testing.T, c substrate.Cluster) int {
			ps := BeginSnapshotInto(nil, c, opts)
			c.RunFor(1)
			part := ps.Collect()
			// A probe a fault killed reports the rate it saw while
			// alive: every pair keeps a reading.
			if n := part.Unmeasurable(); n != 0 {
				t.Errorf("%d pairs unmeasurable, want none: each probe lived half the window or more", n)
			}
			return part.Bill.FailedProbes
		}},
		{"Abandon", func(t *testing.T, c substrate.Cluster) int {
			ps := BeginSnapshotInto(nil, c, opts)
			c.RunFor(1)
			ps.Abandon()
			ps.Abandon() // a no-op, not a double Stop
			mustPanic(t, "Collect after Abandon", func() { ps.Collect() })
			return -1
		}},
		{"SnapshotByVM", func(t *testing.T, c substrate.Cluster) int {
			_, _, rep := SnapshotByVM(c, opts)
			return rep.FailedProbes
		}},
		{"StaticIndependent", func(t *testing.T, c substrate.Cluster) int {
			// Pair 0→1 probes first, across the reset; every pair of
			// VM 2 probes after the kill and is born failed.
			_, rep := StaticIndependent(c, opts)
			return rep.FailedProbes
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := frozenSim(3, 13)
			sim.RunFor(5) // the window is [5, 6)
			sim.KillVM(2, 5.5)
			sim.ResetPair(0, 1, 5.95) // a hardened retry is due at 6.05
			c := &probeLog{Cluster: sim}
			got := tc.run(t, c)
			if n := sim.ActiveFlows(); n != 0 {
				t.Errorf("%d probes left after the collector", n)
			}
			sim.RunFor(2) // past every pending retry timer
			if n := sim.ActiveFlows(); n != 0 {
				t.Errorf("%d probes running 2 s after the window", n)
			}
			if killed := c.failed(); killed != 5 {
				t.Errorf("the faults killed %d probes, want 5 (four of VM 2's, one reset)", killed)
			}
			if got >= 0 && got != c.failed() {
				t.Errorf("FailedProbes = %d, want the %d probes the faults killed", got, c.failed())
			}
		})
	}
}

// TestSnapshotByVMNoiseIgnoresFaults: SnapshotByVM draws one noise value
// per VM pair whatever its probe's fate, as Collect does per DC pair,
// so a fault cannot shift the stream for a fixed seed.
func TestSnapshotByVMNoiseIgnoresFaults(t *testing.T) {
	next := func(kill bool) float64 {
		sim := frozenSim(3, 17)
		sim.RunFor(5)
		if kill {
			sim.KillVM(2, 5.5)
		}
		rng := simrand.Derive(17, "by-vm-noise")
		if _, _, rep := SnapshotByVM(sim, SnapshotOptions(rng)); kill && rep.FailedProbes != 4 {
			t.Fatalf("FailedProbes = %d, want VM 2's four", rep.FailedProbes)
		}
		return rng.Float64()
	}
	if healthy, faulted := next(false), next(true); healthy != faulted {
		t.Errorf("next draw %v after a faulted SnapshotByVM, %v after a healthy one: the fault shifted the noise stream", faulted, healthy)
	}
}

// TestSnapshotAllocs pins what one snapshot allocates on 8 frozen DCs
// (56 probes, one object each in netsim), simulator included. A one-off
// snapshot allocates 65 objects: its probes, the snapshot, pair list,
// chains, first-segment slab, its one failure handler (one per chain
// would cost 56 more), samples, BW matrix and host metrics. Begun again over a collected one (BeginSnapshotInto), it
// reuses all of those and allocates nothing but its probes.
func TestSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	opts := Options{DurationS: 1}
	var ps *PendingSnapshot
	for _, c := range []struct {
		name string
		want float64
		run  func(*netsim.Sim)
	}{
		{"one-off", 65, func(sim *netsim.Sim) {
			ps := BeginSnapshotInto(nil, sim, opts)
			sim.RunFor(1)
			ps.Collect()
		}},
		{"recycled", 56, func(sim *netsim.Sim) {
			ps = BeginSnapshotInto(ps, sim, opts)
			sim.RunFor(1)
			ps.Collect()
		}},
	} {
		sim := frozenSim(8, 23)
		ps = nil
		c.run(sim) // warm the simulator's slabs (and the recycled snapshot)
		if got := testing.AllocsPerRun(20, func() { c.run(sim) }); got > c.want {
			t.Errorf("%s snapshot allocates %.0f objects, want at most %.0f", c.name, got, c.want)
		} else {
			t.Logf("%s snapshot: %.0f objects", c.name, got)
		}
	}
}

// TestRecycledSnapshotMatchesFresh: a snapshot begun again over an
// earlier one — a retried one, one with a retry still pending at
// collection, an abandoned one — samples exactly what a fresh one does
// on the same simulator state: same bandwidths, samples, host metrics
// and bill. Two twin simulators run the same fault script; one recycles
// one snapshot throughout, the other begins each one fresh.
func TestRecycledSnapshotMatchesFresh(t *testing.T) {
	opts := func(k int) Options { return SnapshotOptions(simrand.Derive(uint64(k), "recycled")) }
	twin := func() *netsim.Sim {
		sim := frozenSim(4, 31)
		sim.RunFor(3)
		sim.ResetPair(0, 1, 3.3)  // snapshot 0, window [3, 4): one retry
		sim.ResetPair(2, 3, 9.95) // snapshot 2, window [9, 10): a retry still pending at collection
		return sim
	}
	fresh, reused := twin(), twin()
	var ps, owner *PendingSnapshot
	for k := 0; k < 6; k++ {
		a := BeginSnapshotInto(nil, fresh, opts(k))
		ps = BeginSnapshotInto(ps, reused, opts(k))
		if owner == nil {
			owner = ps
		} else if ps != owner {
			t.Fatalf("snapshot %d: BeginSnapshotInto did not reuse the snapshot it was given", k)
		}
		fresh.RunFor(1)
		reused.RunFor(1)
		if k == 3 {
			a.Abandon()
			ps.Abandon()
		} else {
			pa, pb := a.Collect(), ps.Collect()
			if !reflect.DeepEqual(pa, pb) {
				t.Fatalf("snapshot %d: recycled partial sample differs from a fresh one:\n%+v\n%+v", k, pb, pa)
			}
			if (k == 0 || k == 2) && pa.Retries() != 1 {
				t.Fatalf("snapshot %d retried %d probes, want its reset's one", k, pa.Retries())
			}
		}
		fresh.RunFor(2)
		reused.RunFor(2)
	}
}

// heldCluster holds back every After callback instead of scheduling it,
// and every failure handler registered on a probe, so a test can run
// either later, when it likes.
type heldCluster struct {
	*probeLog
	timers   []func(now float64)
	handlers []func()
}

func (c *heldCluster) After(_ float64, fn func(now float64)) { c.timers = append(c.timers, fn) }

func (c *heldCluster) StartProbe(src, dst substrate.VMID, conns int) substrate.Flow {
	return &heldFlow{Flow: c.probeLog.StartProbe(src, dst, conns), c: c}
}

// heldFlow records its failure handler with its cluster before passing
// it on.
type heldFlow struct {
	substrate.Flow
	c *heldCluster
}

func (f *heldFlow) OnFail(fn func()) {
	f.c.handlers = append(f.c.handlers, fn)
	f.Flow.OnFail(fn)
}

// TestRecycledSnapshotIgnoresStaleWork: deferred work of snapshot k — a
// retry timer a failure armed late in its window, and the failure
// handler of one of its probes — cannot touch snapshot k+1 begun over
// the same storage, whenever it runs: no probe starts, no segment
// closes, no retry is scheduled, and k+1 collects exactly what a
// snapshot with no such leftovers does. The leftovers run by hand
// inside k+1's window, where only the generation rule stops them.
func TestRecycledSnapshotIgnoresStaleWork(t *testing.T) {
	opts := Options{DurationS: 1}
	run := func(stale bool) *PartialSnapshot {
		sim := frozenSim(3, 37)
		sim.RunFor(5)
		c := &heldCluster{probeLog: &probeLog{Cluster: sim}}
		ps := BeginSnapshotInto(nil, c, opts)
		sim.ResetPair(0, 1, 5.9) // late in the window: the retry is held back
		sim.RunFor(1)
		if k := ps.Collect(); k.Retries() != 1 || len(c.timers) != 1 {
			t.Fatalf("snapshot k: %d retries, %d timers held; want the reset's one", k.Retries(), len(c.timers))
		}
		// The failed probe's handler, in the order the probes were armed:
		// pair 0→1 is the first chain.
		staleTimer, staleHandler := c.timers[0], c.handlers[0]
		c.timers, c.handlers = nil, nil
		sim.RunFor(2)

		probes := len(c.probes)
		next := BeginSnapshotInto(ps, c, opts)
		if next != ps {
			t.Fatal("BeginSnapshotInto did not reuse the snapshot")
		}
		sim.RunFor(0.5)
		if stale {
			staleTimer(sim.Now())
			staleHandler()
		}
		if got := len(c.probes) - probes; got != 3*2 {
			t.Errorf("snapshot k+1 started %d probes, want its own 6: a leftover of snapshot k started one", got)
		}
		if len(c.timers) != 0 {
			t.Errorf("%d retries scheduled in snapshot k+1 with no failure in it", len(c.timers))
		}
		sim.RunFor(0.5)
		return next.Collect()
	}
	clean, leftovers := run(false), run(true)
	if leftovers.Retries() != 0 || leftovers.Unmeasurable() != 0 || leftovers.Bill.FailedProbes != 0 {
		t.Errorf("snapshot k+1 after leftovers: %d retries, %d unmeasurable, %d failed probes; want none",
			leftovers.Retries(), leftovers.Unmeasurable(), leftovers.Bill.FailedProbes)
	}
	if !reflect.DeepEqual(clean, leftovers) {
		t.Errorf("snapshot k+1 reads differently when snapshot k's leftovers run in it:\n%+v\n%+v", leftovers, clean)
	}
}

// BenchmarkSnapshot times one snapshot, simulator included: the 24-DC
// one-off gauge of a dense fleet (what measure.Snapshot costs), and an
// 8-DC one with a pair reset mid-window (one retry probe started and
// folded).
func BenchmarkSnapshot(b *testing.B) {
	opts := Options{DurationS: 1}
	b.Run("oneoff24", func(b *testing.B) {
		sim := netsim.NewSim(netsim.FleetCluster(24, 1, substrate.T2Medium, 2025))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ps := BeginSnapshotInto(nil, sim, opts)
			sim.RunFor(1)
			ps.Collect()
		}
	})
	b.Run("reset8", func(b *testing.B) {
		sim := frozenSim(8, 29)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ps := BeginSnapshotInto(nil, sim, opts)
			sim.ResetPair(0, 1, sim.Now()+0.2)
			sim.RunFor(1)
			ps.Collect()
		}
	})
}
