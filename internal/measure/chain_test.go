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
// BeginSnapshot and BeginSnapshotHardened is a snapshot probe, every
// replacement probe a retry. Renaming either function, or moving
// StartProbe more than six frames below it, fails here.
func TestProbeOriginFrames(t *testing.T) {
	sim := frozenSim(4, 19)
	sim.RunFor(5)
	c := &probeLog{Cluster: sim}
	opts := Options{DurationS: 1}
	ps := BeginSnapshot(c, opts)
	c.RunFor(1)
	ps.Collect()
	hs := BeginSnapshotHardened(c, opts)
	sim.ResetPair(0, 1, sim.Now()+0.2) // the retry starts 0.1 s later, inside the window
	c.RunFor(1)
	part := hs.CollectPartial()
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

// TestNoProbeOutlivesSnapshot: whichever collector ends a snapshot, and
// however often, no probe survives it — neither an original a fault
// spared nor a retry whose timer is still pending when the collector
// runs. Every case kills VM 2 mid-window (its four probes) and resets
// the pair 0→1 so late that a hardened retry is still scheduled when
// the window closes: five probes die, and FailedProbes must count them.
func TestNoProbeOutlivesSnapshot(t *testing.T) {
	opts := Options{DurationS: 1}
	cases := []struct {
		name string
		// run ends the snapshot and returns its FailedProbes, -1 when
		// the collector produces no bill.
		run func(t *testing.T, c substrate.Cluster) int
	}{
		{"Collect", func(t *testing.T, c substrate.Cluster) int {
			ps := BeginSnapshot(c, opts)
			c.RunFor(1)
			bw, _, rep := ps.Collect()
			// A probe a fault froze contributes nothing to its pair:
			// zero, not its half-window bytes diluted to a bogus rate.
			for _, p := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {2, 1}} {
				if bw[p[0]][p[1]] != 0 {
					t.Errorf("pair %v = %.2f Mbps from a failed probe, want 0", p, bw[p[0]][p[1]])
				}
			}
			if bw[1][0] <= 0 {
				t.Error("the healthy pair lost its reading")
			}
			return rep.FailedProbes
		}},
		{"CollectPartial", func(t *testing.T, c substrate.Cluster) int {
			ps := BeginSnapshotHardened(c, opts)
			c.RunFor(1)
			return ps.CollectPartial().Bill.FailedProbes
		}},
		{"Abandon", func(t *testing.T, c substrate.Cluster) int {
			ps := BeginSnapshot(c, opts)
			c.RunFor(1)
			ps.Abandon()
			ps.Abandon() // a no-op, not a double Stop
			mustPanic(t, "Collect after Abandon", func() { ps.Collect() })
			return -1
		}},
		{"AbandonHardened", func(t *testing.T, c substrate.Cluster) int {
			ps := BeginSnapshotHardened(c, opts)
			c.RunFor(1)
			ps.Abandon()
			ps.Abandon()
			mustPanic(t, "CollectPartial after Abandon", func() { ps.CollectPartial() })
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
// per VM pair whatever its probe's fate, as Collect and CollectPartial
// do per DC pair, so a fault cannot shift the stream for a fixed seed.
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

// TestSnapshotAllocs pins what one snapshot allocates on 8 frozen DCs,
// simulator included: no more objects than before every collector
// shared the chain list — 128 a legacy snapshot, 363 a hardened one.
func TestSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	opts := Options{DurationS: 1}
	for _, c := range []struct {
		name   string
		parent float64
		run    func(*netsim.Sim)
	}{
		{"legacy", 128, func(sim *netsim.Sim) {
			ps := BeginSnapshot(sim, opts)
			sim.RunFor(1)
			ps.Collect()
		}},
		{"hardened", 363, func(sim *netsim.Sim) {
			ps := BeginSnapshotHardened(sim, opts)
			sim.RunFor(1)
			ps.CollectPartial()
		}},
	} {
		sim := frozenSim(8, 23)
		c.run(sim) // warm the simulator's slabs
		if got := testing.AllocsPerRun(20, func() { c.run(sim) }); got > c.parent {
			t.Errorf("%s snapshot allocates %.0f objects, more than the %.0f before the chain list", c.name, got, c.parent)
		} else {
			t.Logf("%s snapshot: %.0f objects (was %.0f)", c.name, got, c.parent)
		}
	}
}

// BenchmarkSnapshot times one snapshot, simulator included: the 24-DC
// legacy gauge of a dense fleet, and an 8-DC hardened one with a pair
// reset mid-window (one retry probe started and folded).
func BenchmarkSnapshot(b *testing.B) {
	opts := Options{DurationS: 1}
	b.Run("legacy24", func(b *testing.B) {
		sim := netsim.NewSim(netsim.FleetCluster(24, 1, substrate.T2Medium, 2025))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ps := BeginSnapshot(sim, opts)
			sim.RunFor(1)
			ps.Collect()
		}
	})
	b.Run("hardened8", func(b *testing.B) {
		sim := frozenSim(8, 29)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ps := BeginSnapshotHardened(sim, opts)
			sim.ResetPair(0, 1, sim.Now()+0.2)
			sim.RunFor(1)
			ps.CollectPartial()
		}
	})
}
