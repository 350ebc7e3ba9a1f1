package measure

import (
	"math"
	"reflect"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

func frozenSim(n int, seed uint64) *netsim.Sim {
	cfg := netsim.UniformCluster(geo.TestbedSubset(n), substrate.T2Medium, seed)
	cfg.Frozen = true
	return netsim.NewSim(cfg)
}

// TestStaticIndependentMatchesUncontendedCaps checks that one-at-a-time
// probing on a frozen network reads close to the per-connection caps
// (the probes run alone, so nothing contends).
func TestStaticIndependentMatchesUncontendedCaps(t *testing.T) {
	sim := frozenSim(4, 1)
	m, rep := StaticIndependent(sim, Options{DurationS: 10})
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				if m[i][j] != 0 {
					t.Errorf("diagonal [%d][%d] = %v", i, j, m[i][j])
				}
				continue
			}
			cap := math.Min(sim.PerConnCapMbps(i, j), substrate.T2Medium.EgressMbps)
			// The slow-start ramp costs a little of the 10 s window.
			if m[i][j] < cap*0.85 || m[i][j] > cap*1.01 {
				t.Errorf("static[%d][%d] = %.0f, want ~%.0f (pair cap)", i, j, m[i][j], cap)
			}
		}
	}
	if rep.BytesTransferred <= 0 || rep.ElapsedS != 12*10 {
		t.Errorf("report = %+v: want 120s elapsed (12 ordered pairs x 10s)", rep)
	}
}

// TestSimultaneousBelowIndependent checks the §2.2 motivation on the
// measurement layer itself: contended readings cannot exceed the
// uncontended ones on strong links.
func TestSimultaneousBelowIndependent(t *testing.T) {
	sim := frozenSim(8, 2)
	indep, _ := StaticIndependent(sim, Options{DurationS: 6})
	simul, _ := StaticSimultaneous(sim, StableOptions())
	if simul.MaxOffDiagonal() >= indep.MaxOffDiagonal() {
		t.Errorf("simultaneous max %.0f >= independent max %.0f", simul.MaxOffDiagonal(), indep.MaxOffDiagonal())
	}
	// Total egress of any DC stays within its VM cap.
	for i := 0; i < 8; i++ {
		sum := 0.0
		for j := 0; j < 8; j++ {
			sum += simul[i][j]
		}
		if sum > substrate.T2Medium.EgressMbps*1.01 {
			t.Errorf("DC %d simultaneous egress sum %.0f exceeds cap", i, sum)
		}
	}
}

// TestSnapshotNoise checks that snapshots are noisy but unbiased-ish,
// and that noiseless options produce deterministic readings.
func TestSnapshotNoise(t *testing.T) {
	sim := frozenSim(3, 3)
	rng := simrand.Derive(9, "test")
	a, _, _ := Snapshot(sim, SnapshotOptions(rng))
	b, _, _ := Snapshot(sim, SnapshotOptions(rng))
	diff := 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j && a[i][j] != b[i][j] {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("consecutive noisy snapshots identical; noise not applied")
	}
}

// TestSnapshotPanicsWithoutRng checks the misuse guard.
func TestSnapshotPanicsWithoutRng(t *testing.T) {
	sim := frozenSim(2, 4)
	defer func() {
		if recover() == nil {
			t.Error("no panic for NoiseSD without Rng")
		}
	}()
	StaticSimultaneous(sim, Options{DurationS: 1, NoiseSD: 0.1})
}

// TestSnapshotUnderreportsFarLinks checks the slow-start interaction
// the prediction model must learn: a 1-second probe over a long-RTT
// path reads below the stable value.
func TestSnapshotUnderreportsFarLinks(t *testing.T) {
	sim := frozenSim(4, 5)
	short, _ := StaticSimultaneous(sim, Options{DurationS: 1})
	long, _ := StaticSimultaneous(sim, Options{DurationS: 20})
	// DC0 (US East) -> DC3 (AP SE): ~220 ms RTT, ramp eats most of 1 s.
	if short[0][3] >= long[0][3]*0.95 {
		t.Errorf("1s far-link reading %.0f not below 20s reading %.0f", short[0][3], long[0][3])
	}
}

// TestSnapshotByVM checks the VM-granularity association path.
func TestSnapshotByVM(t *testing.T) {
	regions := geo.TestbedSubset(3)
	vms := [][]substrate.VMSpec{
		{substrate.T2Medium, substrate.T2Medium}, // 2 VMs in DC0
		{substrate.T2Medium},
		{substrate.T2Medium},
	}
	cfg := netsim.Config{Regions: regions, VMs: vms, Seed: 6, Frozen: true}
	sim := netsim.NewSim(cfg)
	m, stats, _ := SnapshotByVM(sim, Options{DurationS: 5})
	if m.N() != 4 {
		t.Fatalf("VM matrix is %dx%d, want 4x4", m.N(), m.N())
	}
	if len(stats) != 4 {
		t.Fatalf("%d stat entries", len(stats))
	}
	// Intra-DC pairs (VM 0 and 1 share DC0) must be zero.
	if m[0][1] != 0 || m[1][0] != 0 {
		t.Error("intra-DC VM pairs measured")
	}
	// Cross-DC pairs measured positive.
	if m[0][2] <= 0 || m[1][2] <= 0 {
		t.Errorf("cross-DC VM pairs not measured: %v %v", m[0][2], m[1][2])
	}
}

// TestMonitorWindowedAverage checks the ifTop-like monitor.
func TestMonitorWindowedAverage(t *testing.T) {
	sim := frozenSim(3, 7)
	mon := NewMonitor(sim, 0, 1.0, 5)
	defer mon.Close()
	if r := mon.Rates(); r[1] != 0 {
		t.Error("monitor reported rates before any sample")
	}
	f := sim.StartProbe(sim.FirstVMOfDC(0), sim.FirstVMOfDC(1), 1)
	sim.RunFor(6)
	rates := mon.Rates()
	if rates[1] <= 0 {
		t.Error("monitor missed an active flow")
	}
	got := f.Rate()
	if math.Abs(rates[1]-got) > got*0.25 {
		t.Errorf("windowed avg %.0f far from instantaneous %.0f", rates[1], got)
	}
	if rates[2] != 0 {
		t.Errorf("idle destination shows %.1f Mbps", rates[2])
	}
	f.Stop()
}

// TestMonitorClose checks sampling stops after Close.
func TestMonitorClose(t *testing.T) {
	sim := frozenSim(3, 8)
	mon := NewMonitor(sim, 0, 1.0, 3)
	f := sim.StartProbe(sim.FirstVMOfDC(0), sim.FirstVMOfDC(1), 1)
	sim.RunFor(4)
	mon.Close()
	before := mon.Rates()[1]
	f.Stop()
	sim.RunFor(5)
	after := mon.Rates()[1]
	if before != after {
		t.Error("monitor kept sampling after Close")
	}
}

// TestReportAccounting checks measurement-cost bookkeeping.
func TestReportAccounting(t *testing.T) {
	sim := frozenSim(3, 9)
	_, rep := StaticSimultaneous(sim, Options{DurationS: 10})
	if rep.ElapsedS != 10 {
		t.Errorf("elapsed %v, want 10", rep.ElapsedS)
	}
	if rep.VMSeconds != 30 {
		t.Errorf("VM-seconds %v, want 30", rep.VMSeconds)
	}
	// 6 ordered pairs at a few hundred Mbps for 10s: order-of-GB total.
	if rep.BytesTransferred < 1e8 || rep.BytesTransferred > 1e11 {
		t.Errorf("bytes transferred %.3g implausible", rep.BytesTransferred)
	}
	sum := rep.Add(rep)
	if sum.ElapsedS != 20 || sum.VMSeconds != 60 {
		t.Errorf("Add broken: %+v", sum)
	}
}

// TestBeginSnapshotMatchesSnapshot checks the async snapshot path is
// byte-identical to the synchronous one on an idle cluster: same probe
// layout, same noise order, same stats and bill. The runtime
// re-gauging controller relies on this equivalence when it samples from
// inside a timer callback.
func TestBeginSnapshotMatchesSnapshot(t *testing.T) {
	optsFor := func() Options { return SnapshotOptions(simrand.Derive(99, "snap-equiv")) }

	simA := frozenSim(4, 7)
	wantBW, wantStats, wantRep := Snapshot(simA, optsFor())

	simB := frozenSim(4, 7)
	ps := BeginSnapshotInto(nil, simB, optsFor())
	simB.RunFor(ps.DurationS())
	got := ps.Collect()

	for i := range wantBW {
		for j := range wantBW[i] {
			if got.BW[i][j] != wantBW[i][j] {
				t.Errorf("bw[%d][%d] = %v, want %v", i, j, got.BW[i][j], wantBW[i][j])
			}
		}
	}
	if !reflect.DeepEqual(got.Stats, wantStats) {
		t.Errorf("stats diverge: %v vs %v", got.Stats, wantStats)
	}
	if got.Bill != wantRep {
		t.Errorf("report = %+v, want %+v", got.Bill, wantRep)
	}
	if simB.ActiveFlows() != 0 {
		t.Errorf("%d probes left after Collect", simB.ActiveFlows())
	}
}

// TestPendingSnapshotGuards pins the misuse panics: early collection
// and double collection.
func TestPendingSnapshotGuards(t *testing.T) {
	sim := frozenSim(3, 8)
	ps := BeginSnapshotInto(nil, sim, Options{DurationS: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic collecting before the window elapsed")
			}
		}()
		ps.Collect()
	}()
	sim.RunFor(1)
	ps.Collect()
	defer func() {
		if recover() == nil {
			t.Error("no panic on double collection")
		}
	}()
	ps.Collect()
}

// TestCollectWindow pins Collect's window check, for a one-off snapshot
// and for one begun over the storage of an abandoned one: collecting
// early panics and leaves the snapshot collectable, a late collection
// bills the real elapsed time, and a clock an ulp either side of the
// configured duration bills the duration itself.
func TestCollectWindow(t *testing.T) {
	paths := []struct {
		name  string
		begin func(substrate.Cluster, Options) *PendingSnapshot
	}{
		{"one-off", func(c substrate.Cluster, o Options) *PendingSnapshot { return BeginSnapshotInto(nil, c, o) }},
		{"recycled", func(c substrate.Cluster, o Options) *PendingSnapshot {
			old := BeginSnapshotInto(nil, c, o)
			old.Abandon()
			return BeginSnapshotInto(old, c, o)
		}},
	}
	for _, path := range paths {
		t.Run(path.name+"/early-panics", func(t *testing.T) {
			sim := frozenSim(3, 21)
			ps := path.begin(sim, Options{DurationS: 1})
			sim.RunFor(0.5)
			func() {
				defer func() {
					const want = "measure: snapshot collected after 0.50s of a 1.00s probe window"
					if r := recover(); r != want {
						t.Errorf("early collection panicked with %v, want %q", r, want)
					}
				}()
				ps.Collect()
			}()
			sim.RunFor(0.5)
			if rep := ps.Collect().Bill; rep.ElapsedS != 1 {
				t.Errorf("collection after an early attempt billed %vs, want 1s", rep.ElapsedS)
			}
		})
		t.Run(path.name+"/late-bills-elapsed", func(t *testing.T) {
			sim := frozenSim(3, 22)
			ps := path.begin(sim, Options{DurationS: 1})
			sim.RunFor(1.5)
			rep := ps.Collect().Bill
			if rep.ElapsedS != 1.5 || rep.VMSeconds != 1.5*3 {
				t.Errorf("late collection billed %+v, want 1.5s elapsed and 4.5 VM-seconds", rep)
			}
		})
		for _, c := range []struct {
			name             string
			settle, duration float64
			short            bool
		}{
			{"ulp-short", 0.7, 0.1, true}, // 0.7+0.1-0.7 lands below 0.1
			{"ulp-long", 0.1, 0.2, false}, // 0.1+0.2-0.1 lands above 0.2
		} {
			t.Run(path.name+"/"+c.name, func(t *testing.T) {
				sim := frozenSim(3, 23)
				sim.RunFor(c.settle)
				begun := sim.Now()
				ps := path.begin(sim, Options{DurationS: c.duration})
				sim.RunFor(c.duration)
				if elapsed := sim.Now() - begun; elapsed == c.duration || (elapsed < c.duration) != c.short {
					t.Fatalf("the clock read %v elapsed against %v: the case does not exercise its side of the tolerance", elapsed, c.duration)
				}
				if rep := ps.Collect().Bill; rep.ElapsedS != c.duration {
					t.Errorf("billed %vs (%b), want the configured %vs exactly", rep.ElapsedS, rep.ElapsedS, c.duration)
				}
			})
		}
	}
}

// TestPendingSnapshotAbandon checks Abandon tears probes down without
// producing a sample.
func TestPendingSnapshotAbandon(t *testing.T) {
	sim := frozenSim(3, 9)
	ps := BeginSnapshotInto(nil, sim, Options{DurationS: 1})
	if sim.ActiveFlows() == 0 {
		t.Fatal("no probes started")
	}
	ps.Abandon()
	if sim.ActiveFlows() != 0 {
		t.Errorf("%d probes left after Abandon", sim.ActiveFlows())
	}
}
