package netsim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// densePhysics is the per-pair physics NewSim used to tabulate for all
// n² pairs up front: the nominal per-connection cap, the RTT and its
// bias power, computed by the same expressions.
func densePhysics(s *Sim, i, j int) (connBase, rtt, biasPow float64) {
	cfg := s.cfg
	a := perConnRefMbps * math.Pow(geo.DistanceKm(geo.USEast, geo.USWest), perConnExp)
	d := geo.DistanceKm(cfg.Regions[i], cfg.Regions[j])
	connBase = a / math.Pow(math.Max(d, minPathKm), perConnExp)
	rtt = geo.RTT(cfg.Regions[i], cfg.Regions[j]).Seconds()
	b := rtt
	if b <= 0 {
		b = 1e-3
	}
	return connBase, rtt, math.Pow(b, cfg.RTTBiasExp)
}

// requireDensePhysics checks every pair's accessors, and every built
// record, bit for bit against densePhysics.
func requireDensePhysics(t *testing.T, s *Sim, when string) {
	t.Helper()
	n := s.NumDCs()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			connBase, rtt, biasPow := densePhysics(s, i, j)
			if got := s.PerConnCapMbps(i, j); math.Float64bits(got) != math.Float64bits(connBase) {
				t.Fatalf("%s: PerConnCapMbps(%d, %d) = %v, dense %v", when, i, j, got, connBase)
			}
			if got := s.rttSeconds(i, j); math.Float64bits(got) != math.Float64bits(rtt) {
				t.Fatalf("%s: rttSeconds(%d, %d) = %v, dense %v", when, i, j, got, rtt)
			}
			if p := s.lookupPair(i, j); p != nil && (math.Float64bits(p.connBase) != math.Float64bits(connBase) ||
				math.Float64bits(p.rtt) != math.Float64bits(rtt) || math.Float64bits(p.biasPow) != math.Float64bits(biasPow)) {
				t.Fatalf("%s: pair %d->%d record %v/%v/%v, dense %v/%v/%v",
					when, i, j, p.connBase, p.rtt, p.biasPow, connBase, rtt, biasPow)
			}
		}
	}
}

// TestPairPhysicsMatchesDense pins the pair store to the dense tables
// it replaced: on a frozen fleet (no pair built up front) and on a
// fluctuating testbed (every inter-DC pair built by NewSim), the
// accessors and the records agree bitwise with the dense formulas for
// every pair, before and after a flow, a limit or a cap override builds
// a pair. The override here restates the geographic value, so nothing
// may move.
func TestPairPhysicsMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fleet12-frozen", FleetCluster(12, 2, substrate.T2Medium, 5)},
		{"testbed-fluctuating", UniformCluster(geo.Testbed(), substrate.T2Medium, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim(tc.cfg)
			if n := s.NumDCs(); n < 7 {
				t.Fatalf("fixture has %d DCs, want at least 7", n)
			}
			requireDensePhysics(t, s, "fresh")
			s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 2)
			if vms := s.VMsOfDC(2); len(vms) > 1 {
				s.startProbe(vms[0], vms[1], 1) // an intra-DC pair
			}
			s.SetPairLimit(3, 4, 250)
			connBase, _, _ := densePhysics(s, 5, 6)
			s.SetPerConnCap(5, 6, connBase)
			s.RunFor(2)
			for _, ij := range [][2]int{{0, 1}, {3, 4}, {5, 6}} {
				if s.lookupPair(ij[0], ij[1]) == nil {
					t.Fatalf("pair %d->%d not built", ij[0], ij[1])
				}
			}
			requireDensePhysics(t, s, "after building")
			s.SetPerConnCap(1, 0, 123)
			if got := s.PerConnCapMbps(1, 0); got != 123 {
				t.Fatalf("PerConnCapMbps after an override = %v, want 123", got)
			}
		})
	}
}

// TestReadOnlyAccessorsBuildNoPair checks that nothing but addFlow,
// SetPairLimit and SetPerConnCap builds a pair record: every read-only
// accessor, and the clears and resets of pairs that hold nothing, leave
// the store as NewSim made it.
func TestReadOnlyAccessorsBuildNoPair(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want int // pairs NewSim builds
	}{
		{"fleet12-frozen", FleetCluster(12, 2, substrate.T2Medium, 5), 0},
		{"testbed-fluctuating", UniformCluster(geo.Testbed(), substrate.T2Medium, 5), 8 * 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim(tc.cfg)
			n := s.NumDCs()
			if s.numPairs != tc.want {
				t.Fatalf("NewSim built %d pairs, want %d", s.numPairs, tc.want)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					_ = s.PerConnCapMbps(i, j)
					_ = s.rttSeconds(i, j)
					if r := s.PairRate(i, j); r != 0 {
						t.Fatalf("PairRate(%d, %d) = %v on an idle network", i, j, r)
					}
					if l := s.pairLimitAt(i, j); !math.IsNaN(l) {
						t.Fatalf("pairLimitAt(%d, %d) = %v, want NaN", i, j, l)
					}
					s.ClearPairLimit(i, j)
					s.ResetPair(i, j, s.Now())
				}
			}
			s.RunFor(3)
			if s.numPairs != tc.want {
				t.Fatalf("read-only accessors built pairs: %d, want %d", s.numPairs, tc.want)
			}
		})
	}
}

// TestNewSimFleetAllocBytes bounds what NewSim costs a 100-DC fleet: no
// per-pair state is built up front, so it is the VM set and one int32
// per pair slot.
func TestNewSimFleetAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector (see raceEnabled)")
	}
	cfg := FleetCluster(100, 4, substrate.T2Medium, 7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSim(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if got := after.TotalAlloc - before.TotalAlloc; got > 160<<10 {
		t.Errorf("NewSim(FleetCluster(100, 4)) allocated %d bytes, want <= %d", got, 160<<10)
	}
}

// TestClearPairLimitsBuildOrderFree sets the same limits on twin
// simulators in opposite orders, so the pair records are built in
// opposite orders, then clears them with ClearPairLimit, each twin in
// its own setting order, so the clears record their dirt in opposite
// orders too. Each limit links two flows on disjoint VMs into one
// group, which the clear splits; rates before and after the clears
// must agree bitwise.
func TestClearPairLimitsBuildOrderFree(t *testing.T) {
	limits := []struct {
		i, j int
		mbps float64
	}{{0, 1, 40}, {2, 3, 25}, {4, 5, 60}, {6, 7, 15}}
	ordered := func(k, m int) (int, int, float64) {
		l := limits[m]
		if k == 1 {
			l = limits[len(limits)-1-m]
		}
		return l.i, l.j, l.mbps
	}
	var twins [2]*Sim
	for k := range twins {
		s := NewSim(FleetCluster(8, 2, substrate.T2Medium, 3))
		for m := range limits {
			s.SetPairLimit(ordered(k, m))
		}
		for _, l := range limits {
			for v := 0; v < 2; v++ {
				s.startProbe(s.VMsOfDC(l.i)[v], s.VMsOfDC(l.j)[v], v+2)
			}
		}
		twins[k] = s
	}
	if twins[0].lookupPair(0, 1).idx == twins[1].lookupPair(0, 1).idx {
		t.Fatal("fixture did not build the pairs in different orders")
	}
	compare := func(when string, wantGroups int) {
		t.Helper()
		for _, s := range twins {
			s.ensureAllocated()
			if g, _ := s.AllocGroups(); g != wantGroups {
				t.Fatalf("%s: %d groups, want %d", when, g, wantGroups)
			}
		}
		for fi, f := range twins[0].flows {
			g := twins[1].flows[fi]
			if math.Float64bits(f.rate) != math.Float64bits(g.rate) {
				t.Fatalf("%s: flow #%d rate %v, twin %v", when, f.id, f.rate, g.rate)
			}
		}
	}
	compare("limited", len(limits))
	if r := twins[0].PairRate(0, 1); r != 40 {
		t.Fatalf("limited pair carries %v Mbps, want its 40 Mbps limit", r)
	}
	for k, s := range twins {
		for m := range limits {
			i, j, _ := ordered(k, m)
			s.ClearPairLimit(i, j)
		}
	}
	compare("cleared", 2*len(limits))
	if r := twins[0].PairRate(0, 1); r <= 40 {
		t.Fatalf("cleared pair carries %v Mbps, want more than its former limit", r)
	}
}

// newSimSink keeps BenchmarkNewSimFleet's result live.
var newSimSink *Sim

// BenchmarkNewSimFleet times building a fleet simulator, which pays for
// the VM set and the pair index only.
func BenchmarkNewSimFleet(b *testing.B) {
	for _, dcs := range []int{24, 100} {
		b.Run(fmt.Sprintf("dcs=%d", dcs), func(b *testing.B) {
			cfg := FleetCluster(dcs, 4, substrate.T2Medium, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				newSimSink = NewSim(cfg)
			}
		})
	}
}

// BenchmarkPerConnCapAllPairs reads every pair's nominal cap on a fresh
// 100-DC fleet, where no pair is built and each read comes from
// geography: the n² read a planner's believed-bandwidth matrix makes.
func BenchmarkPerConnCapAllPairs(b *testing.B) {
	s := NewSim(FleetCluster(100, 4, substrate.T2Medium, 7))
	n := s.NumDCs()
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for k := 0; k < b.N; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum += s.PerConnCapMbps(i, j)
			}
		}
	}
	if sum <= 0 {
		b.Fatal("no capacity")
	}
}
