package agent

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/substrate"
)

func frozenSim(n int, seed uint64) *netsim.Sim {
	cfg := netsim.UniformCluster(geo.TestbedSubset(n), substrate.T2Medium, seed)
	cfg.Frozen = true
	return netsim.NewSim(cfg)
}

// planRowFor builds a simple plan row: window [1, maxC] with the given
// per-connection predicted BW on every destination.
func planRowFor(n, dc, maxC int, predBW float64) PlanRow {
	row := PlanRow{
		MinConns: make([]int, n), MaxConns: make([]int, n),
		MinBW: make([]float64, n), MaxBW: make([]float64, n),
		PredBW: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		if j == dc {
			row.MinConns[j], row.MaxConns[j] = 1, 1
			continue
		}
		row.MinConns[j], row.MaxConns[j] = 1, maxC
		row.PredBW[j] = predBW
		row.MinBW[j] = predBW
		row.MaxBW[j] = predBW * float64(maxC)
	}
	return row
}

// TestStartsAtMaximum checks the §3.2.2 initial state: targets begin at
// the maximum configuration.
func TestStartsAtMaximum(t *testing.T) {
	sim := frozenSim(3, 1)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	a.ApplyPlan(planRowFor(3, 0, 6, 200))
	if got := a.ConnsTo(1); got != 6 {
		t.Errorf("initial conns = %d, want max 6", got)
	}
	if got := a.TargetBW()[1]; got != 1200 {
		t.Errorf("initial target BW = %v, want 1200", got)
	}
	if got := a.ConnsTo(0); got != 1 {
		t.Errorf("own-DC conns = %d, want 1", got)
	}
}

// TestMultiplicativeDecreaseOnCongestion checks the AIMD decrease path:
// when the monitored rate is significantly below target, connections
// halve and target BW halves, epoch after epoch, until both sit at the
// window minimum (1 connection, 800 Mbps), where they stay.
func TestMultiplicativeDecreaseOnCongestion(t *testing.T) {
	sim := frozenSim(3, 2)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	// Pretend the link can sustain 8x800 Mbps; reality will deliver far
	// less (per-conn cap to AP SE is ~120), so decrease mode must kick in.
	row := planRowFor(3, 0, 8, 800)
	a.ApplyPlan(row)
	a.Start()
	defer a.Stop()

	// A big transfer toward DC 2 (AP SE), registered with the agent.
	f := sim.StartFlow(sim.FirstVMOfDC(0), sim.FirstVMOfDC(2), a.ConnsTo(2), 10e9, nil)
	a.Register(f)
	if a.MonitoredMbps() != nil {
		t.Fatal("monitor reading before the first epoch")
	}
	wantConns := []int{4, 2, 1, 1}
	wantTarget := []float64{3200, 1600, 800, 800}
	sim.RunFor(1) // epochs fall at t = 5, 10, 15, 20
	for e := range wantConns {
		before := a.TargetBW()[2]
		sim.RunFor(5)
		mon := a.MonitoredMbps()
		if mon == nil || !(mon[2] > 0 && before-mon[2] > significantMbps) {
			t.Fatalf("epoch %d: monitored %v against target %v: not congested (test premise broken)", e, mon, before)
		}
		if got := a.Conns()[2]; got != wantConns[e] {
			t.Errorf("epoch %d: conns = %d, want %d", e, got, wantConns[e])
		}
		if got := a.TargetBW()[2]; got != wantTarget[e] {
			t.Errorf("epoch %d: target BW = %v, want %v", e, got, wantTarget[e])
		}
	}
	f.Stop()
}

// TestAdditiveIncreaseWhenHealthy checks the increase path: when the
// monitored rate meets the target, connections climb by one per epoch
// up to the maximum, and the target becomes max(target, conns·PredBW)
// capped at MaxBW — so a target already above conns·PredBW holds.
func TestAdditiveIncreaseWhenHealthy(t *testing.T) {
	for _, tc := range []struct {
		name       string
		target     float64
		wantConns  []int
		wantTarget []float64
	}{
		{"from-the-floor", 1700, []int{2, 3, 4, 4}, []float64{3400, 5100, 6800, 6800}},
		{"target-above-conns", 5500, []int{2, 3, 4, 4}, []float64{5500, 5500, 6800, 6800}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := frozenSim(3, 3)
			a := New(sim, sim.FirstVMOfDC(0), Config{})
			a.ApplyPlan(planRowFor(3, 0, 4, 1700)) // MaxBW 6800
			// Start from the low end to watch the climb.
			a.conns[1] = 1
			a.targetBW[1] = tc.target
			f := &stubFlow{src: a.VM(), dst: sim.FirstVMOfDC(1), conns: 1}
			a.Register(f)
			for e := range tc.wantConns {
				// The link delivers the target: healthy.
				before := a.TargetBW()[1]
				f.bytes += before * 1e6 / 8 * epochS
				a.epoch(sim.Now())
				if mon := a.MonitoredMbps()[1]; before-mon > significantMbps {
					t.Fatalf("epoch %d: monitored %v against target %v (test premise broken)", e, mon, before)
				}
				if got := a.Conns()[1]; got != tc.wantConns[e] {
					t.Errorf("epoch %d: conns = %d, want %d", e, got, tc.wantConns[e])
				}
				if got := a.TargetBW()[1]; got != tc.wantTarget[e] {
					t.Errorf("epoch %d: target BW = %v, want %v", e, got, tc.wantTarget[e])
				}
				if f.conns != tc.wantConns[e] {
					t.Errorf("epoch %d: live flow at %d conns, want %d", e, f.conns, tc.wantConns[e])
				}
			}
		})
	}
}

// TestIdleSkipRule checks the <1 MB rule: pairs that moved almost
// nothing are skipped, leaving connections and targets untouched while
// the monitor still reports their (zero) rate.
func TestIdleSkipRule(t *testing.T) {
	sim := frozenSim(3, 4)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	a.ApplyPlan(planRowFor(3, 0, 8, 800))
	a.Start()
	defer a.Stop()

	conns, target := a.Conns(), a.TargetBW()
	sim.RunFor(11) // epochs pass with no traffic at all
	if mon := a.MonitoredMbps(); mon == nil || mon[1] != 0 || mon[2] != 0 {
		t.Errorf("monitored after idle epochs = %v, want zeros", mon)
	}
	if got := a.Conns(); !reflect.DeepEqual(got, conns) {
		t.Errorf("idle pairs' conns changed %v -> %v", conns, got)
	}
	if got := a.TargetBW(); !reflect.DeepEqual(got, target) {
		t.Errorf("idle pairs' targets changed %v -> %v", target, got)
	}
}

// TestAIMDStaysWithinWindow property-checks the core AIMD invariant:
// connections never leave [minConns, maxConns] regardless of traffic.
func TestAIMDStaysWithinWindow(t *testing.T) {
	f := func(seed uint64, maxC uint8, predBW uint16, epochs uint8) bool {
		sim := frozenSim(3, seed)
		mc := int(maxC%8) + 1
		a := New(sim, sim.FirstVMOfDC(0), Config{})
		a.ApplyPlan(planRowFor(3, 0, mc, float64(predBW%2000)+50))
		a.Start()
		defer a.Stop()
		fl := sim.StartFlow(sim.FirstVMOfDC(0), sim.FirstVMOfDC(2), a.ConnsTo(2), 1e12, nil)
		a.Register(fl)
		sim.RunFor(float64(epochs%10)*5 + 6)
		fl.Stop()
		for j, c := range a.Conns() {
			if j == 0 {
				continue
			}
			if c < 1 || c > mc {
				return false
			}
		}
		for j, bw := range a.TargetBW() {
			if j == 0 {
				continue
			}
			if bw < 0 || bw > a.row.MaxBW[j]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestThrottleInstallsAndClears checks §3.2.2's TC throttling: links
// richer than the row mean get capped at the mean; Stop removes caps.
func TestThrottleInstallsAndClears(t *testing.T) {
	sim := frozenSim(3, 5)
	a := New(sim, sim.FirstVMOfDC(0), Config{Throttle: true})
	row := planRowFor(3, 0, 8, 100)
	// Make destination 1 rich (its maxBW far above the mean).
	row.MaxBW[1] = 5000
	row.MaxBW[2] = 500
	a.ApplyPlan(row) // T = (5000+500)/2 = 2750: only dst 1 throttled
	a.Start()

	probe := sim.StartProbe(sim.FirstVMOfDC(0), sim.FirstVMOfDC(1), 8)
	sim.RunFor(5)
	if got := probe.Rate(); got > 2750.001 {
		t.Errorf("throttled rate %v exceeds threshold 2750", got)
	}
	a.Stop()
	sim.RunFor(5)
	if got := probe.Rate(); got <= 2750.001 && got < 2800 {
		// After clearing, the 8-conn probe should exceed the cap again
		// (per-conn cap to US West is ~1700, egress 2400 binds).
		t.Logf("post-clear rate %v (egress-bound)", got)
	}
	probe.Stop()
}

// TestRegisterRejectsForeignFlows checks the ownership guard.
func TestRegisterRejectsForeignFlows(t *testing.T) {
	sim := frozenSim(3, 6)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	a.ApplyPlan(planRowFor(3, 0, 4, 100))
	f := sim.StartFlow(sim.FirstVMOfDC(1), sim.FirstVMOfDC(2), 1, 1e6, nil)
	defer func() {
		if recover() == nil {
			t.Error("no panic registering another VM's flow")
		}
		f.Stop()
	}()
	a.Register(f)
}

// TestStartBeforePlanPanics checks the usage guard.
func TestStartBeforePlanPanics(t *testing.T) {
	sim := frozenSim(2, 7)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	defer func() {
		if recover() == nil {
			t.Error("no panic on Start before ApplyPlan")
		}
	}()
	a.Start()
}

// TestPoolResizing checks the Connections Manager applies new counts to
// live registered flows.
func TestPoolResizing(t *testing.T) {
	sim := frozenSim(3, 8)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	a.ApplyPlan(planRowFor(3, 0, 8, 800)) // wildly optimistic targets
	a.Start()
	defer a.Stop()
	f := sim.StartFlow(sim.FirstVMOfDC(0), sim.FirstVMOfDC(2), 8, 50e9, nil)
	a.Register(f)
	sim.RunFor(6) // one congested epoch halves the pool
	if f.Conns() >= 8 {
		t.Errorf("live flow still at %d conns after decrease epoch", f.Conns())
	}
	f.Stop()
}

// stubFlow is a controllable substrate.Flow for exercising the WAN
// Monitor's byte accounting at exact boundaries.
type stubFlow struct {
	id       substrate.FlowID
	src, dst substrate.VMID
	conns    int
	bytes    float64
	done     bool
}

func (f *stubFlow) ID() substrate.FlowID      { return f.id }
func (f *stubFlow) Src() substrate.VMID       { return f.src }
func (f *stubFlow) Dst() substrate.VMID       { return f.dst }
func (f *stubFlow) Conns() int                { return f.conns }
func (f *stubFlow) SetConns(n int)            { f.conns = n }
func (f *stubFlow) Rate() float64             { return 0 }
func (f *stubFlow) TransferredBytes() float64 { return f.bytes }
func (f *stubFlow) RemainingBytes() float64   { return 0 }
func (f *stubFlow) Done() bool                { return f.done }
func (f *stubFlow) Probe() bool               { return false }
func (f *stubFlow) Stop()                     { f.done = true }
func (f *stubFlow) Failed() bool              { return false }
func (f *stubFlow) OnFail(func())             {}

// TestMinTransferBytesBoundary pins the §3.2.2 skip rule at its exact
// boundary: a pair that moved one byte less than minTransferBytes
// (1 MiB) is skipped as idle, while a pair at exactly minTransferBytes
// participates in AIMD.
func TestMinTransferBytesBoundary(t *testing.T) {
	const minBytes = 1 << 20
	for _, tc := range []struct {
		name     string
		moved    float64
		wantIdle bool
	}{
		{"one-under", minBytes - 1, true},
		{"exactly-at", minBytes, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := frozenSim(3, 10)
			a := New(sim, sim.FirstVMOfDC(0), Config{})
			a.ApplyPlan(planRowFor(3, 0, 8, 800))
			f := &stubFlow{src: a.VM(), dst: sim.FirstVMOfDC(1), conns: 1}
			a.Register(f)
			f.bytes = tc.moved
			a.epoch(5)
			if got, want := a.MonitoredMbps()[1], tc.moved*8/1e6/5; got != want {
				t.Errorf("moved %.0f bytes: monitored %v Mbps, want %v", tc.moved, got, want)
			}
			// 1 MB over 5 s is ~1.7 Mbps against a 6400 Mbps target:
			// participating means a decrease to half, idle means untouched.
			wantConns, wantTarget := 4, 3200.0
			if tc.wantIdle {
				wantConns, wantTarget = 8, 6400
			}
			if got := a.Conns()[1]; got != wantConns {
				t.Errorf("moved %.0f bytes: conns = %d, want %d", tc.moved, got, wantConns)
			}
			if got := a.TargetBW()[1]; got != wantTarget {
				t.Errorf("moved %.0f bytes: target BW = %v, want %v", tc.moved, got, wantTarget)
			}
		})
	}
}

// TestWindowCollapse pins the degenerate window minCons == maxCons:
// AIMD has no room, so connection counts never move in either mode and
// targets stay pinned to the single configuration.
func TestWindowCollapse(t *testing.T) {
	sim := frozenSim(3, 11)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	row := planRowFor(3, 0, 1, 800)
	for j := 1; j < 3; j++ {
		row.MinConns[j], row.MaxConns[j] = 3, 3
		row.MinBW[j], row.MaxBW[j] = 3*800, 3*800
	}
	a.ApplyPlan(row)
	a.Start()
	defer a.Stop()

	// Congested traffic (way below the 2400 Mbps target) for several
	// epochs: decrease mode fires but cannot leave the window.
	f := sim.StartFlow(sim.FirstVMOfDC(0), sim.FirstVMOfDC(2), a.ConnsTo(2), 100e9, nil)
	a.Register(f)
	sim.RunFor(1) // epochs fall at t = 5, 10, 15, 20
	sawDecrease := false
	for e := 0; e < 4; e++ {
		sim.RunFor(5)
		mon := a.MonitoredMbps()
		sawDecrease = sawDecrease || mon[2] > 0 && 2400-mon[2] > significantMbps
		if got := a.Conns()[2]; got != 3 {
			t.Errorf("epoch %d: collapsed window moved to %d conns", e, got)
		}
		if got := a.TargetBW()[2]; got != 2400 {
			t.Errorf("epoch %d: collapsed window target moved to %v", e, got)
		}
	}
	if !sawDecrease {
		t.Error("congestion never detected (test premise broken)")
	}
	f.Stop()
}

// TestSwapWindowClampsAndResizes checks the mid-job swap path the
// re-gauging controller uses: current state is clamped into the new
// window (not reset), and live flows resize immediately.
func TestSwapWindowClampsAndResizes(t *testing.T) {
	sim := frozenSim(3, 12)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	a.ApplyPlan(planRowFor(3, 0, 8, 800)) // starts at 8 conns, target 6400
	a.Start()
	defer a.Stop()
	f := sim.StartFlow(sim.FirstVMOfDC(0), sim.FirstVMOfDC(1), a.ConnsTo(1), 50e9, nil)
	a.Register(f)

	// Shrink: window [1, 2] — conns and target clamp down, pool resizes.
	down := planRowFor(3, 0, 2, 800)
	a.SwapWindow(down)
	if got := a.Conns()[1]; got != 2 {
		t.Errorf("conns after shrink swap = %d, want 2", got)
	}
	if got := f.Conns(); got != 2 {
		t.Errorf("live flow conns after swap = %d, want 2", got)
	}
	if got := a.TargetBW()[1]; got != 1600 {
		t.Errorf("target after shrink swap = %v, want clamped 1600", got)
	}

	// Raise the floor: window [4, 6] — conns lift to the new minimum.
	up := planRowFor(3, 0, 6, 800)
	for j := 1; j < 3; j++ {
		up.MinConns[j] = 4
		up.MinBW[j] = 4 * 800
	}
	a.SwapWindow(up)
	if got := a.Conns()[1]; got != 4 {
		t.Errorf("conns after floor-raise swap = %d, want lifted to 4", got)
	}
	if got := f.Conns(); got != 4 {
		t.Errorf("live flow conns after floor-raise = %d, want 4", got)
	}
	f.Stop()
}

// TestThrottleTracksWindowSwap checks the `tc` interaction with a
// mid-epoch swap: the throttle threshold is recomputed from the new
// achievable bandwidths, re-capping a link that the old plan throttled
// at a now-stale level, and the next AIMD epoch runs against the new
// caps without disturbance.
func TestThrottleTracksWindowSwap(t *testing.T) {
	sim := frozenSim(3, 13)
	a := New(sim, sim.FirstVMOfDC(0), Config{Throttle: true})
	row := planRowFor(3, 0, 8, 100)
	row.MaxBW[1] = 5000 // rich: throttled at T = (5000+500)/2 = 2750
	row.MaxBW[2] = 500
	a.ApplyPlan(row)
	a.Start()
	defer a.Stop()

	probe := sim.StartProbe(sim.FirstVMOfDC(0), sim.FirstVMOfDC(1), 8)
	sim.RunFor(2.5) // mid-epoch
	if got := probe.Rate(); got > 2750.001 {
		t.Fatalf("pre-swap throttled rate %v exceeds 2750", got)
	}

	// Re-gauged plan: destination 1 is now believed far poorer, so the
	// threshold drops to T = (900+500)/2 = 700 and the cap tightens.
	swapped := planRowFor(3, 0, 8, 100)
	swapped.MaxBW[1] = 900
	swapped.MaxBW[2] = 500
	a.SwapWindow(swapped)
	sim.RunFor(1)
	if got := probe.Rate(); got > 700.001 {
		t.Errorf("post-swap throttled rate %v exceeds new threshold 700", got)
	}

	// The next epoch still runs (mid-epoch swap does not wedge AIMD).
	sim.RunFor(3)
	if a.MonitoredMbps() == nil {
		t.Error("no AIMD epoch after mid-epoch swap")
	}
	probe.Stop()

	// Stop clears the swapped throttle too.
	a.Stop()
	probe2 := sim.StartProbe(sim.FirstVMOfDC(0), sim.FirstVMOfDC(1), 8)
	sim.RunFor(2)
	if got := probe2.Rate(); got <= 700.001 {
		t.Errorf("throttle survived Stop: rate %v", got)
	}
	probe2.Stop()
}

// TestAIMDReactsToBlackout injects a link failure (a near-zero `tc`
// limit standing in for a blackout) and checks the agent collapses its
// targets toward the minimum, then recovers after the link heals. The
// link under test is US East -> AP SE, whose per-connection cap
// (~120 Mbps) makes the full 8-connection target achievable, so
// recovery can climb all the way back.
func TestAIMDReactsToBlackout(t *testing.T) {
	sim := frozenSim(3, 9)
	perConn := sim.PerConnCapMbps(0, 2)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	a.ApplyPlan(planRowFor(3, 0, 8, perConn))
	a.Start()
	defer a.Stop()

	f := sim.StartFlow(sim.FirstVMOfDC(0), sim.FirstVMOfDC(2), a.ConnsTo(2), 100e9, nil)
	a.Register(f)
	sim.RunFor(6) // healthy epoch first

	// Blackout: the link delivers ~nothing (but >1 MB per epoch so the
	// idle-skip rule does not mask the signal).
	sim.SetPairLimit(0, 2, 5)
	sim.RunFor(21)
	if got := a.Conns()[2]; got != 1 {
		t.Errorf("conns during blackout = %d, want collapsed to 1", got)
	}

	// Heal and watch additive recovery.
	sim.ClearPairLimit(0, 2)
	sim.RunFor(26)
	if got := a.Conns()[2]; got < 3 {
		t.Errorf("conns after heal = %d, want climbing back", got)
	}
	f.Stop()
}

// multiVMSim builds a netsim cluster whose DC dc gets extra VMs, the
// association topology of §3.3.3 / sec583.
func multiVMSim(n int, extraPerDC []int, seed uint64) *netsim.Sim {
	regions := geo.TestbedSubset(n)
	vms := make([][]substrate.VMSpec, n)
	for i := range vms {
		vms[i] = []substrate.VMSpec{substrate.T2Medium}
		for k := 0; k < extraPerDC[i]; k++ {
			vms[i] = append(vms[i], substrate.T2Medium)
		}
	}
	cfg := netsim.Config{Regions: regions, VMs: vms, Seed: seed, Frozen: true}
	return netsim.NewSim(cfg)
}

// TestChunkPlanSumsToGlobalPlan is the property test of the
// oversubscription bugfix: however the VMs are spread over DCs, the
// per-DC sums of the VM-level connection windows must reproduce the
// DC-level plan exactly — in particular, a DC with more VMs than
// connections must NOT hand every VM a floor connection and blow the
// optimizer's cap.
func TestChunkPlanSumsToGlobalPlan(t *testing.T) {
	check := func(seedIn uint64, extraRaw [4]uint8, mRaw uint8) bool {
		n := 4
		extra := make([]int, n)
		for i := range extra {
			extra[i] = int(extraRaw[i] % 6) // 1..6 VMs per DC
		}
		sim := multiVMSim(n, extra, seedIn%64)
		pred := bwmatrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					pred[i][j] = 40 + float64((seedIn+uint64(i*7+j*3))%900)
				}
			}
		}
		plan := optimize.GlobalOptimize(pred, optimize.Options{M: 2 + int(mRaw%7)})
		rows := ChunkPlan(sim, pred, plan)
		for dc := 0; dc < n; dc++ {
			vms := sim.VMsOfDC(dc)
			for j := 0; j < n; j++ {
				if j == dc {
					continue
				}
				sumMin, sumMax := 0, 0
				for _, vm := range vms {
					row := rows[vm]
					if row.MinConns[j] > row.MaxConns[j] || row.MinConns[j] < 0 {
						t.Logf("dc %d vm %d pair %d: bad window [%d, %d]",
							dc, vm, j, row.MinConns[j], row.MaxConns[j])
						return false
					}
					sumMin += row.MinConns[j]
					sumMax += row.MaxConns[j]
				}
				if sumMin != plan.MinConns[dc][j] || sumMax != plan.MaxConns[dc][j] {
					t.Logf("dc %d->%d: chunk sums [%d, %d] != plan [%d, %d] (VMs %d)",
						dc, j, sumMin, sumMax, plan.MinConns[dc][j], plan.MaxConns[dc][j], len(vms))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkPlanSpareSlotsGoLow locks the tie-break: with a window of
// one connection over a three-VM DC, VM 0 gets the slot and the others
// a zero window.
func TestChunkPlanSpareSlotsGoLow(t *testing.T) {
	sim := multiVMSim(3, []int{2, 0, 0}, 5)
	pred := bwmatrix.NewFilled(3, 100)
	plan := optimize.GlobalOptimize(pred, optimize.Options{M: 8})
	// Force a one-connection window on DC 0's pairs.
	for j := 1; j < 3; j++ {
		plan.MinConns[0][j], plan.MaxConns[0][j] = 1, 1
		plan.MinBW[0][j], plan.MaxBW[0][j] = pred[0][j], pred[0][j]
	}
	rows := ChunkPlan(sim, pred, plan)
	vms := sim.VMsOfDC(0)
	for j := 1; j < 3; j++ {
		if got := rows[vms[0]].MaxConns[j]; got != 1 {
			t.Errorf("VM 0 pair %d: MaxConns = %d, want the single slot", j, got)
		}
		for _, vm := range vms[1:] {
			if got := rows[vm].MaxConns[j]; got != 0 {
				t.Errorf("VM %d pair %d: MaxConns = %d, want 0 (window capped)", vm, j, got)
			}
			if got := rows[vm].MaxBW[j]; got != 0 {
				t.Errorf("VM %d pair %d: MaxBW = %v, want 0", vm, j, got)
			}
		}
	}
}

// TestChunkPlanSplitsAcrossVMs locks the chunk rule where it lives: VM
// idx of a k-VM DC gets conns/k connections plus one when idx < conns%k
// — the chunks sum to the DC's count, spare slots go to the lowest
// indices, and no index ever gets fewer from a larger count (so a
// valid window stays valid per VM).
func TestChunkPlanSplitsAcrossVMs(t *testing.T) {
	for _, c := range []struct {
		conns, k int
		want     []int
	}{
		{8, 1, []int{8}},
		{8, 3, []int{3, 3, 2}},
		{2, 4, []int{1, 1, 0, 0}},
		{0, 2, []int{0, 0}},
	} {
		sim := multiVMSim(2, []int{c.k - 1, 0}, 3)
		pred := bwmatrix.NewFilled(2, 120)
		plan := optimize.GlobalOptimize(pred, optimize.Options{M: 8})
		lower := c.conns / 2
		plan.MinConns[0][1], plan.MaxConns[0][1] = lower, c.conns
		rows := ChunkPlan(sim, pred, plan)
		sumMin, sumMax := 0, 0
		for idx, vm := range sim.VMsOfDC(0) {
			row := rows[vm]
			if row.MaxConns[1] != c.want[idx] {
				t.Errorf("%d conns over %d VMs: VM %d gets %d, want %d", c.conns, c.k, idx, row.MaxConns[1], c.want[idx])
			}
			if row.MinConns[1] > row.MaxConns[1] {
				t.Errorf("%d conns over %d VMs: VM %d gets %d of the smaller count %d", c.conns, c.k, idx, row.MinConns[1], lower)
			}
			if idx > 0 && row.MaxConns[1] > rows[sim.VMsOfDC(0)[idx-1]].MaxConns[1] {
				t.Errorf("%d conns over %d VMs: spare slot at index %d, above a lower one without", c.conns, c.k, idx)
			}
			sumMin += row.MinConns[1]
			sumMax += row.MaxConns[1]
		}
		if sumMin != lower || sumMax != c.conns {
			t.Errorf("%d conns over %d VMs: chunks sum to [%d, %d], want [%d, %d]", c.conns, c.k, sumMin, sumMax, lower, c.conns)
		}
	}
}

// chunkReference is ChunkPlan as it was before rows were slabbed: fresh
// slices per VM, the DC's counts split into a parts slice first.
func chunkReference(sim substrate.Cluster, pred bwmatrix.Matrix, plan optimize.Plan) map[substrate.VMID]PlanRow {
	split := func(conns, k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = conns / k
			if i < conns%k {
				out[i]++
			}
		}
		return out
	}
	n := sim.NumDCs()
	rows := make(map[substrate.VMID]PlanRow, sim.NumVMs())
	for dc := 0; dc < n; dc++ {
		vms := sim.VMsOfDC(dc)
		k := len(vms)
		for idx, vm := range vms {
			row := planRowFor(n, dc, 0, 0)
			for j := 0; j < n; j++ {
				if j == dc {
					continue
				}
				perVM := pred[dc][j] / float64(k)
				row.MinConns[j] = split(plan.MinConns[dc][j], k)[idx]
				row.MaxConns[j] = split(plan.MaxConns[dc][j], k)[idx]
				row.PredBW[j] = perVM
				row.MinBW[j] = perVM * float64(row.MinConns[j])
				row.MaxBW[j] = perVM * float64(row.MaxConns[j])
			}
			rows[vm] = row
		}
	}
	return rows
}

// scribble overwrites every entry of a row with values no plan holds.
func scribble(row PlanRow) {
	for j := range row.MinConns {
		row.MinConns[j], row.MaxConns[j] = -7, 99
		row.MinBW[j], row.MaxBW[j], row.PredBW[j] = -1, 1e12, -3
	}
}

func requireRowsEqual(t *testing.T, label string, got, want PlanRow) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestChunkPlanIntoMatchesFresh reuses ONE dst — scribbled over before
// every call — across clusters of equal VM count but different layouts
// (where a VM's intra-DC column moves), clusters of other shapes, one
// plan chunked for several slots (the Oversubscribe aliasing), job
// partitions with zero windows and a dead DC's zeroed rows. The result
// must equal the pre-slab reference and a nil-dst call every time, and
// a dst of the wrong shape must be replaced, not written through.
func TestChunkPlanIntoMatchesFresh(t *testing.T) {
	layouts := [][]int{ // extra VMs per DC
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, // 4 VMs over 3 DCs, three ways
		{0, 0, 0, 0}, // 4 VMs over 4 DCs: same count, other width
		{2, 1, 0, 3}, {1, 1},
	}
	var dst []PlanRow
	for trial := 0; trial < 60; trial++ {
		extra := layouts[trial%len(layouts)]
		if trial%4 == 1 {
			extra = layouts[(trial-1)%len(layouts)] // same cluster again: pure reuse
		}
		n := len(extra)
		sim := multiVMSim(n, extra, uint64(trial))
		pred := bwmatrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					pred[i][j] = 40 + float64((trial*31+i*7+j*3)%900)
				}
			}
		}
		if trial%5 == 2 {
			dead := trial % n
			for j := 0; j < n; j++ {
				pred[dead][j], pred[j][dead] = 0, 0
			}
		}
		plan := optimize.GlobalOptimize(pred, optimize.Options{M: 2 + trial%7})
		plans := []optimize.Plan{plan, plan} // two slots aliasing one plan
		if trial%3 == 0 {
			plans = optimize.PartitionPlan(plan, []float64{1, 0, 2.5})
		}
		for _, part := range plans {
			old := dst
			var held []PlanRow
			for _, row := range old {
				scribble(row)
				held = append(held, row.clone())
			}
			dst = ChunkPlanInto(dst, sim, pred, part)
			want, fresh := chunkReference(sim, pred, part), ChunkPlan(sim, pred, part)
			if len(dst) != sim.NumVMs() || len(fresh) != sim.NumVMs() {
				t.Fatalf("trial %d: %d reused / %d fresh rows for %d VMs", trial, len(dst), len(fresh), sim.NumVMs())
			}
			for vm := range dst {
				requireRowsEqual(t, fmt.Sprintf("trial %d VM %d reused dst", trial, vm), dst[vm], want[substrate.VMID(vm)])
				requireRowsEqual(t, fmt.Sprintf("trial %d VM %d nil dst", trial, vm), fresh[vm], want[substrate.VMID(vm)])
			}
			reused := len(old) > 0 && &old[0] == &dst[0]
			sameShape := len(old) == sim.NumVMs() && len(old) > 0 && len(old[0].MinConns) == n
			if reused != sameShape {
				t.Fatalf("trial %d: dst reused = %v, same shape = %v", trial, reused, sameShape)
			}
			if !reused {
				for vm := range old {
					requireRowsEqual(t, fmt.Sprintf("trial %d: replaced dst row %d written through", trial, vm), old[vm], held[vm])
				}
			}
		}
	}
	sim := multiVMSim(4, []int{0, 0, 0, 0}, 1)
	pred := bwmatrix.NewFilled(4, 300)
	plan := optimize.GlobalOptimize(pred, optimize.Options{})
	dst = ChunkPlanInto(nil, sim, pred, plan)
	if avg := testing.AllocsPerRun(50, func() { dst = ChunkPlanInto(dst, sim, pred, plan) }); avg != 0 {
		t.Errorf("ChunkPlanInto allocates %.1f times per warm call, want 0", avg)
	}
}

// epochSample is what an observer reads from an agent after an epoch:
// the state the AIMD step left behind.
type epochSample struct {
	Conns     []int
	TargetBW  []float64
	Monitored []float64
}

// TestAgentKeepsItsOwnWindow is the ownership rule: ApplyPlan and
// SwapWindow copy the row they are lent, so scribbling over it
// afterwards — what the deployment's next ChunkPlanInto does — moves
// neither the agent's window nor any later AIMD epoch, and Window
// hands out a copy in turn.
func TestAgentKeepsItsOwnWindow(t *testing.T) {
	sawDecrease, sawIncrease := false, false
	run := func(reuseRows bool) ([]epochSample, []PlanRow) {
		sim := frozenSim(3, 9)
		a := New(sim, sim.FirstVMOfDC(0), Config{})
		f := &stubFlow{src: a.VM(), dst: sim.FirstVMOfDC(2), conns: 8}
		var windows []PlanRow
		var samples []epochSample
		epoch := func(moved float64) {
			before := a.TargetBW()[2]
			f.bytes += moved
			a.epoch(sim.Now())
			s := epochSample{a.Conns(), a.TargetBW(), a.MonitoredMbps()}
			samples = append(samples, s)
			if before-s.Monitored[2] > significantMbps {
				sawDecrease = true
			} else {
				sawIncrease = true
			}
		}
		step := func(install func(PlanRow), row PlanRow) {
			want := row.clone()
			install(row)
			if reuseRows {
				scribble(row)
			}
			requireRowsEqual(t, "window after the lent row was overwritten", a.Window(), want)
			scribble(a.Window()) // a copy: the agent must not see this
			requireRowsEqual(t, "window after its copy-out was overwritten", a.Window(), want)
			windows = append(windows, a.Window())
			// A congested epoch (the decrease floors at MinConns/MinBW),
			// then a healthy one (the increase caps at MaxConns/MaxBW and
			// scales PredBW): every row of the window is read.
			epoch(2 << 20)
			epoch(8e9)
		}
		row := planRowFor(3, 0, 8, 400)
		row.MinConns[2], row.MinBW[2] = 3, 1200
		step(a.ApplyPlan, row)
		a.Register(f)
		step(a.SwapWindow, planRowFor(3, 0, 5, 650))
		narrowed := planRowFor(3, 0, 2, 90)
		step(a.SwapWindow, narrowed)
		return samples, windows
	}
	wantSamples, wantWin := run(false)
	gotSamples, gotWin := run(true)
	if !reflect.DeepEqual(gotWin, wantWin) {
		t.Errorf("windows moved with the caller's scratch:\n got %+v\nwant %+v", gotWin, wantWin)
	}
	if !reflect.DeepEqual(gotSamples, wantSamples) {
		t.Errorf("AIMD epochs moved with the caller's scratch:\n got %+v\nwant %+v", gotSamples, wantSamples)
	}
	if !sawDecrease || !sawIncrease {
		t.Errorf("script exercised decrease = %v, increase = %v; want both", sawDecrease, sawIncrease)
	}
}

// TestWarmEpochAllocatesNothing pins the agent's live-state design: an
// epoch rewrites the monitor, targets and connection counts in place,
// so once the pool is warm it allocates nothing — with real netsim
// flows in the pool and stub flows moving bytes through both AIMD
// branches.
func TestWarmEpochAllocatesNothing(t *testing.T) {
	sim := frozenSim(3, 14)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	a.ApplyPlan(planRowFor(3, 0, 8, 400))
	for dc := 1; dc < 3; dc++ {
		f := sim.StartFlow(a.VM(), sim.FirstVMOfDC(dc), a.ConnsTo(dc), 1e12, nil)
		defer f.Stop()
		a.Register(f)
	}
	congested := &stubFlow{src: a.VM(), dst: sim.FirstVMOfDC(1), conns: 8}
	healthy := &stubFlow{src: a.VM(), dst: sim.FirstVMOfDC(2), conns: 8}
	a.Register(congested)
	a.Register(healthy)
	epoch := func() {
		congested.bytes += 2 << 20
		healthy.bytes += 8e9
		a.epoch(sim.Now())
	}
	epoch()
	if avg := testing.AllocsPerRun(50, epoch); avg != 0 {
		t.Errorf("a warm epoch allocates %.1f times, want 0", avg)
	}
	if len(a.active) != 4 {
		t.Fatalf("pool holds %d flows, want the 4 live ones", len(a.active))
	}
}

// TestEpochCompactsPoolAndAccounts drives the WAN Monitor's pool — the
// flows and the bytes each had moved at the last epoch, two parallel
// slices compacted in one pass — through flows finishing at the front,
// middle and back while others continue: every epoch's per-destination
// bytes must be exactly the deltas of the flows registered, and a
// finished flow must leave both slices.
func TestEpochCompactsPoolAndAccounts(t *testing.T) {
	sim := frozenSim(3, 4)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	a.ApplyPlan(planRowFor(3, 0, 8, 800))
	flows := make([]*stubFlow, 6)
	for i := range flows {
		flows[i] = &stubFlow{id: substrate.FlowID(i), src: a.VM(), dst: sim.FirstVMOfDC(1 + i%2), conns: 1,
			bytes: float64(1000 * (i + 1))} // a flow may have moved bytes before it registers
		a.Register(flows[i])
	}
	finishAt := map[int]int{1: 2, 2: 0, 3: 5, 4: 3} // epoch -> flow finishing in it
	alive := len(flows)
	for epoch := 1; epoch <= 5; epoch++ {
		want := make([]float64, 3)
		for i, f := range flows {
			if f.done {
				continue
			}
			moved := float64((epoch*7+i*13)%50) * 1e6
			f.bytes += moved
			want[sim.DCOf(f.dst)] += moved
		}
		if i, ok := finishAt[epoch]; ok {
			flows[i].done = true
			alive--
		}
		if epoch == 3 {
			late := &stubFlow{id: 9, src: a.VM(), dst: sim.FirstVMOfDC(2), conns: 1, bytes: 5e6}
			flows = append(flows, late)
			a.Register(late)
			alive++
		}
		a.epoch(float64(5 * epoch))
		got := a.MonitoredMbps()
		for j := range want {
			if mbps := want[j] * 8 / 1e6 / 5; got[j] != mbps {
				t.Fatalf("epoch %d dst %d: monitored %v Mbps, flows moved %v", epoch, j, got[j], mbps)
			}
		}
		if len(a.active) != alive || len(a.lastBytes) != alive {
			t.Fatalf("epoch %d: pool holds %d flows / %d byte marks, %d alive", epoch, len(a.active), len(a.lastBytes), alive)
		}
		for k, f := range a.active {
			if f.Done() || a.lastBytes[k] != f.TransferredBytes() {
				t.Fatalf("epoch %d: pool slot %d holds flow %d (done %v) marked at %v, moved %v",
					epoch, k, f.ID(), f.Done(), a.lastBytes[k], f.TransferredBytes())
			}
		}
		for _, f := range a.active[len(a.active):cap(a.active)] {
			if f != nil {
				t.Fatalf("epoch %d: finished flow %d retained past the pool's length", epoch, f.ID())
			}
		}
	}
}

// TestResetIsNew holds Reset to its contract: a stopped agent that ran
// epochs over a pool comes back with every accessor answering as New's
// agent does — no window, no targets, one connection per transfer, no
// monitor reading, an empty pool, Start refused until ApplyPlan — and
// re-arming it allocates nothing but the epoch timer, since its slabs
// and pool are kept. Reset of a running agent panics.
func TestResetIsNew(t *testing.T) {
	sim := frozenSim(3, 15)
	a := New(sim, sim.FirstVMOfDC(0), Config{})
	a.ApplyPlan(planRowFor(3, 0, 8, 400))
	a.Start()
	f := &stubFlow{src: a.VM(), dst: sim.FirstVMOfDC(1), conns: 8}
	a.Register(f)
	f.bytes = 8e9
	sim.RunFor(5)
	if a.MonitoredMbps() == nil {
		t.Fatal("no epoch ran before the reset")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on Reset of a running agent")
			}
		}()
		a.Reset()
	}()
	a.Stop()
	a.Reset()

	fresh := New(sim, a.VM(), Config{})
	for _, ag := range []*Agent{a, fresh} {
		if w := ag.Window(); !reflect.DeepEqual(w, PlanRow{}) {
			t.Errorf("window %+v, want the zero row", w)
		}
		if ag.Conns() != nil || ag.TargetBW() != nil || ag.MonitoredMbps() != nil {
			t.Errorf("conns %v, target %v, monitored %v; want nil", ag.Conns(), ag.TargetBW(), ag.MonitoredMbps())
		}
		if got := ag.ConnsTo(1); got != 1 {
			t.Errorf("ConnsTo before ApplyPlan = %d, want 1", got)
		}
	}
	if len(a.active) != 0 || cap(a.active) == 0 || a.active[:1][0] != nil {
		t.Errorf("pool %d flows (capacity %d): want it emptied, its storage kept and cleared", len(a.active), cap(a.active))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on Start of a reset agent before ApplyPlan")
			}
		}()
		a.Start()
	}()
	row := planRowFor(3, 0, 6, 300)
	if avg := testing.AllocsPerRun(20, func() { a.Reset(); a.ApplyPlan(row) }); avg != 0 {
		t.Errorf("Reset + ApplyPlan allocates %.1f times, want 0", avg)
	}
	fresh.ApplyPlan(row)
	if !reflect.DeepEqual(a.Window(), fresh.Window()) || !reflect.DeepEqual(a.Conns(), fresh.Conns()) ||
		!reflect.DeepEqual(a.TargetBW(), fresh.TargetBW()) {
		t.Errorf("re-armed agent %+v / %v / %v, fresh %+v / %v / %v",
			a.Window(), a.Conns(), a.TargetBW(), fresh.Window(), fresh.Conns(), fresh.TargetBW())
	}
}

// TestAddToSumsTheCopyingReads: AddTo adds exactly what MonitoredMbps
// and TargetBW return, and the unfinished transfers per destination —
// the agent's own DC left as it was — into rows that already hold other
// agents' sums, adds nothing before the first epoch, and copies nothing.
func TestAddToSumsTheCopyingReads(t *testing.T) {
	sim := frozenSim(3, 15)
	a := New(sim, sim.FirstVMOfDC(1), Config{})
	a.ApplyPlan(planRowFor(3, 1, 8, 400))
	toward0 := &stubFlow{src: a.VM(), dst: sim.FirstVMOfDC(0), conns: 8}
	toward2 := &stubFlow{src: a.VM(), dst: sim.FirstVMOfDC(2), conns: 8}
	local := &stubFlow{src: a.VM(), dst: a.VM(), conns: 1}
	finished := &stubFlow{src: a.VM(), dst: sim.FirstVMOfDC(2), conns: 1}
	for _, f := range []*stubFlow{toward0, toward2, local, finished} {
		a.Register(f)
	}
	live, target, demand := []float64{0.5, 7, 0.25}, []float64{1, 9, 3}, []int{2, 5, 1}
	a.AddTo(live, target, demand)
	if !reflect.DeepEqual(live, []float64{0.5, 7, 0.25}) || !reflect.DeepEqual(target, []float64{1, 9, 3}) || !reflect.DeepEqual(demand, []int{2, 5, 1}) {
		t.Fatal("AddTo added before the first epoch")
	}
	toward0.bytes, toward2.bytes, local.bytes = 3e9, 6e8, 5e9
	a.epoch(sim.Now())
	finished.done = true
	mon, tgt, pool := a.MonitoredMbps(), a.TargetBW(), []int{1, 1, 1} // toward0; local; toward2
	a.AddTo(live, target, demand)
	for j, base := range [][3]float64{{0.5, 1, 2}, {7, 9, 5}, {0.25, 3, 1}} {
		wantLive, wantTgt, wantDemand := base[0]+mon[j], base[1]+tgt[j], int(base[2])+pool[j]
		if j == a.DC() {
			wantLive, wantTgt, wantDemand = base[0], base[1], int(base[2])
		}
		if live[j] != wantLive || target[j] != wantTgt || demand[j] != wantDemand {
			t.Errorf("destination %d: AddTo gave %v/%v/%d, want %v/%v/%d", j, live[j], target[j], demand[j], wantLive, wantTgt, wantDemand)
		}
	}
	if demand[2] != 1+1 {
		t.Errorf("demand toward DC 2 = %d, want the one unfinished transfer added", demand[2])
	}
	if got := testing.AllocsPerRun(20, func() { a.AddTo(live, target, demand) }); got != 0 {
		t.Errorf("AddTo allocates %.0f objects, want 0", got)
	}
}
