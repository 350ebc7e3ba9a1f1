package netsim_test

import (
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/substrate"
)

// TestAnchorBandwidths checks the two calibration anchors from the
// paper's §1/§2.1: a single connection US East↔US West achieves
// ≈1700 Mbps and US East↔AP SE ≈121 Mbps.
func TestAnchorBandwidths(t *testing.T) {
	cfg := netsim.UniformCluster(geo.Testbed(), substrate.T2Medium, 7)
	cfg.Frozen = true
	sim := netsim.NewSim(cfg)

	east, west, apse := 0, 1, 3
	if got := sim.PerConnCapMbps(east, west); got < 1600 || got > 1800 {
		t.Errorf("US East->US West per-conn cap = %.1f Mbps, want ~1700", got)
	}
	if got := sim.PerConnCapMbps(east, apse); got < 105 || got > 140 {
		t.Errorf("US East->AP SE per-conn cap = %.1f Mbps, want ~121", got)
	}
}

// TestStaticVsRuntimeGap reproduces the shape of the paper's Table 1 /
// §2.2 motivation: statically+independently measured bandwidths differ
// significantly (>100 Mbps) from simultaneous runtime measurements on
// many links, because concurrent transfers contend.
func TestStaticVsRuntimeGap(t *testing.T) {
	cfg := netsim.UniformCluster(geo.Testbed(), substrate.T2Medium, 11)
	sim := netsim.NewSim(cfg)

	static, _ := measure.StaticIndependent(sim, measure.Options{DurationS: 10})
	runtime, _ := measure.StaticSimultaneous(sim, measure.Options{DurationS: 20})

	diff := static.AbsDiff(runtime)
	sig := diff.CountOffDiagAbove(100)
	if sig < 8 {
		t.Errorf("significant (>100 Mbps) static-vs-runtime gaps = %d, want >= 8 of 56 ordered pairs", sig)
	}
	// The strongest links must lose the most: runtime min BW should be
	// close to static min BW (weak links are per-conn capped either
	// way), while the max drops.
	if runtime.MaxOffDiagonal() > 0.95*static.MaxOffDiagonal() {
		t.Errorf("runtime max %.0f not below static max %.0f: contention too weak",
			runtime.MaxOffDiagonal(), static.MaxOffDiagonal())
	}
	t.Logf("static min/max = %.0f/%.0f, runtime min/max = %.0f/%.0f, significant gaps = %d",
		static.MinOffDiagonal(), static.MaxOffDiagonal(),
		runtime.MinOffDiagonal(), runtime.MaxOffDiagonal(), sig)
}

// TestParallelConnectionsScaleWeakLink reproduces §1: the weakest link
// (US East↔AP SE) rises toward ~1 Gbps with 9 connections when probed
// alone — parallel connections scale weak-link throughput near-linearly.
func TestParallelConnectionsScaleWeakLink(t *testing.T) {
	cfg := netsim.UniformCluster(geo.Testbed(), substrate.T2Medium, 7)
	cfg.Frozen = true
	sim := netsim.NewSim(cfg)

	east, apse := 0, 3
	f1 := sim.StartProbe(sim.FirstVMOfDC(east), sim.FirstVMOfDC(apse), 1)
	sim.RunFor(5)
	r1 := f1.Rate()
	f1.Stop()

	f9 := sim.StartProbe(sim.FirstVMOfDC(east), sim.FirstVMOfDC(apse), 9)
	sim.RunFor(5)
	r9 := f9.Rate()
	f9.Stop()

	if r9 < 7*r1 {
		t.Errorf("9-conn rate %.0f Mbps is not ~9x the 1-conn rate %.0f Mbps", r9, r1)
	}
	if r9 < 900 || r9 > 1300 {
		t.Errorf("9-conn US East->AP SE = %.0f Mbps, want ~1 Gbps (paper anchor)", r9)
	}
}

// TestUniformParallelismLittleBenefit reproduces Fig. 2(b): raising
// every link to 8 connections barely helps the weak links under
// contention, because the RTT bias lets nearby DCs keep most of the
// capacity.
func TestUniformParallelismLittleBenefit(t *testing.T) {
	regions := []geo.Region{geo.USEast, geo.USWest, geo.APSE}
	cfg := netsim.UniformCluster(regions, substrate.T3Nano, 13)
	cfg.Frozen = true
	sim := netsim.NewSim(cfg)

	minRate := func(conns int) float64 {
		var flows []substrate.Flow
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i != j {
					flows = append(flows, sim.StartProbe(sim.FirstVMOfDC(i), sim.FirstVMOfDC(j), conns))
				}
			}
		}
		sim.RunFor(5)
		min := -1.0
		for _, f := range flows {
			if r := f.Rate(); min < 0 || r < min {
				min = r
			}
		}
		for _, f := range flows {
			f.Stop()
		}
		return min
	}

	single := minRate(1)
	uniform8 := minRate(8)
	if uniform8 > 1.5*single {
		t.Errorf("uniform 8-conn min BW %.0f vs single-conn %.0f: uniform parallelism should have little benefit", uniform8, single)
	}
	t.Logf("3-DC min BW: single=%.1f uniform8=%.1f", single, uniform8)
}

// TestHeterogeneousConnectionsRaiseMinBW reproduces Fig. 2(c): the same
// total connection budget, redistributed toward far links, raises the
// cluster's minimum BW by roughly 2x.
func TestHeterogeneousConnectionsRaiseMinBW(t *testing.T) {
	regions := []geo.Region{geo.USEast, geo.USWest, geo.APSE}
	cfg := netsim.UniformCluster(regions, substrate.T3Nano, 13)
	cfg.Frozen = true
	sim := netsim.NewSim(cfg)

	run := func(conns func(i, j int) int) (min, max float64) {
		var flows []substrate.Flow
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i != j {
					flows = append(flows, sim.StartProbe(sim.FirstVMOfDC(i), sim.FirstVMOfDC(j), conns(i, j)))
				}
			}
		}
		sim.RunFor(5)
		min, max = -1, 0
		for _, f := range flows {
			r := f.Rate()
			if min < 0 || r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		for _, f := range flows {
			f.Stop()
		}
		return min, max
	}

	singleMin, singleMax := run(func(i, j int) int { return 1 })
	uniMin, uniMax := run(func(i, j int) int { return 8 })
	// Far DC (index 2, AP SE) gets the bulk of the 48-connection budget.
	hetMin, hetMax := run(func(i, j int) int {
		if i == 2 || j == 2 {
			return 11
		}
		return 2
	})
	if hetMin < 1.6*uniMin {
		t.Errorf("heterogeneous min BW %.0f < 1.6x uniform min %.0f; want ~2.1x (Fig 2c)", hetMin, uniMin)
	}
	// "Although this leads to a reduction in the maximum BW between DC1
	// and DC2, it improves the weak BW links" — the strong link is
	// traded down relative to its uncontended single-connection rate.
	if hetMax >= singleMax {
		t.Errorf("heterogeneous should trade max BW down: het max %.0f >= single-conn max %.0f", hetMax, singleMax)
	}
	if hetMin < singleMin {
		t.Errorf("heterogeneous min BW %.0f below single-conn min %.0f", hetMin, singleMin)
	}
	t.Logf("single min/max = %.1f/%.1f; uniform min/max = %.1f/%.1f; heterogeneous min/max = %.1f/%.1f (%.2fx min)",
		singleMin, singleMax, uniMin, uniMax, hetMin, hetMax, hetMin/uniMin)
}
