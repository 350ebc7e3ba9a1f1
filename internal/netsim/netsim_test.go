package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

func frozenSim(n int, seed uint64) *Sim {
	cfg := UniformCluster(geo.TestbedSubset(n), substrate.T2Medium, seed)
	cfg.Frozen = true
	return NewSim(cfg)
}

// TestFlowLifecycle checks a sized flow transfers exactly its bytes and
// fires its completion callback once.
func TestFlowLifecycle(t *testing.T) {
	s := frozenSim(3, 1)
	done := 0
	f := s.startFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 1, 100e6, func() { done++ })
	if f.Done() {
		t.Fatal("flow done before running")
	}
	if err := s.AwaitFlows(600, f); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Errorf("onDone fired %d times", done)
	}
	if got := f.TransferredBytes(); math.Abs(got-100e6) > 1 {
		t.Errorf("transferred %.0f bytes, want 100e6", got)
	}
	if f.RemainingBytes() != 0 {
		t.Errorf("remaining %.0f", f.RemainingBytes())
	}
	if s.ActiveFlows() != 0 {
		t.Errorf("%d active flows after completion", s.ActiveFlows())
	}
}

// TestStoppedFlowDoesNotComplete checks Stop suppresses onDone.
func TestStoppedFlowDoesNotComplete(t *testing.T) {
	s := frozenSim(3, 1)
	done := false
	f := s.startFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 1, 1e12, func() { done = true })
	s.RunFor(1)
	f.Stop()
	s.RunFor(5)
	if done {
		t.Error("onDone fired for a stopped flow")
	}
	if !f.Done() {
		t.Error("stopped flow not marked done")
	}
}

// TestByteConservation property-checks that a completed flow's
// transferred bytes equal its requested size, across random sizes,
// connection counts and pairs.
func TestByteConservation(t *testing.T) {
	f := func(seed uint64, sizeKB uint32, conns uint8, si, di uint8) bool {
		s := frozenSim(4, seed)
		src := int(si) % 4
		dst := int(di) % 4
		if src == dst {
			return true
		}
		size := float64(sizeKB%100000+1) * 1024
		fl := s.startFlow(s.FirstVMOfDC(src), s.FirstVMOfDC(dst), int(conns%10)+1, size, nil)
		if err := s.AwaitFlows(36000, fl); err != nil {
			return false
		}
		return math.Abs(fl.TransferredBytes()-size) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSetConnsChangesRate checks the Connections Manager lever: more
// connections on an uncontended weak link raise throughput linearly
// (the paper's empirical observation behind Eq. 3).
func TestSetConnsChangesRate(t *testing.T) {
	s := frozenSim(4, 3)
	// DC0 (US East) -> DC3 (AP SE): far, per-connection capped.
	f := s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(3), 1)
	s.RunFor(10)
	r1 := f.Rate()
	f.SetConns(4)
	s.RunFor(10)
	r4 := f.Rate()
	if r4 < 3.5*r1 {
		t.Errorf("4-conn rate %v is not ~4x 1-conn rate %v", r4, r1)
	}
	f.Stop()
}

// TestTimers checks After and Every scheduling semantics.
func TestTimers(t *testing.T) {
	s := frozenSim(2, 4)
	var fired []float64
	s.After(2.5, func(now float64) { fired = append(fired, now) })
	cancel := s.Every(1.0, func(now float64) { fired = append(fired, now) })
	s.RunFor(3.2)
	cancel()
	s.RunFor(2)
	// Expect Every at 1, 2, 3 and After at 2.5: four firings total.
	if len(fired) != 4 {
		t.Fatalf("fired %d times at %v, want 4", len(fired), fired)
	}
	want := []float64{1, 2, 2.5, 3}
	for i, w := range want {
		if math.Abs(fired[i]-w) > 1e-6 {
			t.Errorf("firing %d at %v, want %v", i, fired[i], w)
		}
	}
}

// TestCongestionKneeDegradesThroughput checks that a VM loaded far past
// the knee achieves less total throughput than a moderately loaded one
// — the §2.2 "beyond 8 connections no improvement" effect.
func TestCongestionKneeDegradesThroughput(t *testing.T) {
	total := func(connsPerPeer int) float64 {
		s := frozenSim(8, 5)
		var flows []*Flow
		for d := 1; d < 8; d++ {
			flows = append(flows, s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(d), connsPerPeer))
		}
		s.RunFor(10)
		sum := 0.0
		for _, f := range flows {
			sum += f.Rate()
		}
		return sum
	}
	moderate := total(2) // 14 out-conns: under the knee
	heavy := total(16)   // 112 out-conns: far past it
	if heavy > moderate {
		t.Errorf("112-conn total %v should not beat 14-conn total %v", heavy, moderate)
	}
}

// TestRetransmissionsRiseUnderOverload checks the Nr feature source.
func TestRetransmissionsRiseUnderOverload(t *testing.T) {
	s := frozenSim(8, 6)
	idle := s.VMStats(s.FirstVMOfDC(0)).RetransPerSec
	var flows []*Flow
	for d := 1; d < 8; d++ {
		flows = append(flows, s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(d), 8))
	}
	s.RunFor(5)
	loaded := s.VMStats(s.FirstVMOfDC(0)).RetransPerSec
	if loaded <= idle {
		t.Errorf("retrans under load %v not above idle %v", loaded, idle)
	}
	for _, f := range flows {
		f.Stop()
	}
}

// TestMemUtilGrowsWithConnections checks the Md feature source.
func TestMemUtilGrowsWithConnections(t *testing.T) {
	s := frozenSim(3, 7)
	vm := s.FirstVMOfDC(1)
	before := s.VMStats(vm).MemUtil
	f := s.startProbe(s.FirstVMOfDC(0), vm, 30)
	s.RunFor(1)
	after := s.VMStats(vm).MemUtil
	if after <= before {
		t.Errorf("mem util %v did not grow from %v with 30 connections", after, before)
	}
	f.Stop()
}

// TestCPULoadReducesRate checks the Ci coupling: a busy sender achieves
// a lower uncontended rate.
func TestCPULoadReducesRate(t *testing.T) {
	s := frozenSim(4, 8)
	f := s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(3), 1)
	s.RunFor(10)
	freeRate := f.Rate()
	s.SetCPULoad(s.FirstVMOfDC(0), 1.0)
	s.RunFor(1)
	busyRate := f.Rate()
	if busyRate >= freeRate {
		t.Errorf("busy sender rate %v not below idle rate %v", busyRate, freeRate)
	}
	f.Stop()
}

// TestSlowStartRamp checks that a freshly started flow transfers less
// in its first RTTs than a warmed-up one — the TCP slow-start model
// behind the small-transfer experiments (Fig. 6).
func TestSlowStartRamp(t *testing.T) {
	s := frozenSim(4, 9)
	src, dst := s.FirstVMOfDC(0), s.FirstVMOfDC(3) // long RTT
	f := s.startProbe(src, dst, 1)
	rampWindow := 4 * s.rttSeconds(0, 3)
	s.RunFor(rampWindow / 4)
	early := f.Rate()
	s.RunFor(rampWindow * 3)
	late := f.Rate()
	if early >= late {
		t.Errorf("early rate %v not below warmed rate %v", early, late)
	}
	f.Stop()

	// More connections shorten the ramp.
	f8 := s.startProbe(src, dst, 8)
	s.RunFor(rampWindow / 4)
	early8 := f8.Rate()
	perConnEarly8 := early8 / 8
	if perConnEarly8 <= early {
		t.Errorf("8-conn early per-conn rate %v should beat 1-conn early rate %v (shorter ramp)", perConnEarly8, early)
	}
	f8.Stop()
}

// TestRunUntilExactness checks time bookkeeping: RunUntil lands exactly
// on the requested instant.
func TestRunUntilExactness(t *testing.T) {
	s := frozenSim(2, 10)
	s.RunUntil(12.34)
	if s.Now() != 12.34 {
		t.Errorf("now = %v, want 12.34", s.Now())
	}
	s.RunUntil(12.0) // moving backwards is a no-op
	if s.Now() != 12.34 {
		t.Errorf("now moved backwards to %v", s.Now())
	}
}

// TestAwaitFlowsStopsAtCompletion checks the engine-facing property
// that no simulated time is wasted after the last flow drains.
func TestAwaitFlowsStopsAtCompletion(t *testing.T) {
	s := frozenSim(3, 11)
	f := s.startFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 1, 50e6, nil)
	start := s.Now()
	if err := s.AwaitFlows(3600, f); err != nil {
		t.Fatal(err)
	}
	elapsed := s.Now() - start
	// 50 MB over a ~1.7 Gbps link ≈ 0.24 s (+ramp); anything over 2 s
	// means AwaitFlows overshot.
	if elapsed > 2 {
		t.Errorf("AwaitFlows consumed %.2f s for a sub-second transfer", elapsed)
	}
}

// TestAwaitFlowsTimeout checks the deadline error path.
func TestAwaitFlowsTimeout(t *testing.T) {
	s := frozenSim(3, 12)
	s.SetPairLimit(0, 1, 0.001) // effectively stalled
	f := s.startFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 1, 1e12, nil)
	if err := s.AwaitFlows(5, f); err == nil {
		t.Error("expected timeout error")
	}
	f.Stop()
}

// TestPairRateAggregation checks DC-level rate reporting.
func TestPairRateAggregation(t *testing.T) {
	s := frozenSim(3, 13)
	f1 := s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 1)
	f2 := s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 2)
	s.RunFor(5)
	if got, want := s.PairRate(0, 1), f1.Rate()+f2.Rate(); math.Abs(got-want) > 1e-6 {
		t.Errorf("PairRate = %v, want %v", got, want)
	}
	if s.PairRate(1, 0) != 0 {
		t.Error("reverse direction should be 0")
	}
	f1.Stop()
	f2.Stop()
}

// TestConfigValidation checks constructor panics on malformed configs.
func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no regions": {},
		"vm mismatch": {
			Regions: geo.TestbedSubset(2),
			VMs:     [][]VMSpec{{substrate.T2Medium}},
		},
		"empty DC": {
			Regions: geo.TestbedSubset(2),
			VMs:     [][]VMSpec{{substrate.T2Medium}, {}},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewSim(cfg)
		}()
	}
}

// TestAddingFlowNeverHelpsOthers property-checks a core water-filling
// invariant: adding a competing flow can only reduce (or preserve)
// every existing flow's rate.
func TestAddingFlowNeverHelpsOthers(t *testing.T) {
	f := func(seed uint64, si, di uint8, conns uint8) bool {
		s := frozenSim(4, seed)
		f1 := s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 2)
		f2 := s.startProbe(s.FirstVMOfDC(2), s.FirstVMOfDC(3), 2)
		s.RunFor(6)
		r1, r2 := f1.Rate(), f2.Rate()

		src := int(si) % 4
		dst := int(di) % 4
		if src == dst {
			return true
		}
		s.startProbe(s.FirstVMOfDC(src), s.FirstVMOfDC(dst), int(conns%8)+1)
		s.RunFor(6)
		const eps = 1e-6
		return f1.Rate() <= r1+eps && f2.Rate() <= r2+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFluctuationStationarity checks the OU process keeps long-run
// factors near 1 (no drift) while producing real variance, by observing
// a probe's rate over several minutes of weather.
func TestFluctuationStationarity(t *testing.T) {
	cfg := UniformCluster(geo.TestbedSubset(2), substrate.T2Medium, 21)
	s := NewSim(cfg)
	f := s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 1)
	var rates []float64
	for i := 0; i < 300; i++ {
		s.RunFor(1)
		rates = append(rates, f.Rate())
	}
	f.Stop()
	mean, sd := 0.0, 0.0
	for _, r := range rates {
		mean += r
	}
	mean /= float64(len(rates))
	for _, r := range rates {
		sd += (r - mean) * (r - mean)
	}
	sd = math.Sqrt(sd / float64(len(rates)))
	base := s.PerConnCapMbps(0, 1)
	if mean < base*0.8 || mean > base*1.25 {
		t.Errorf("long-run mean %.0f far from nominal %.0f: OU drifted", mean, base)
	}
	if sd < base*0.05 {
		t.Errorf("rate SD %.0f too small: fluctuation not visible", sd)
	}
	t.Logf("nominal %.0f, observed mean %.0f, SD %.0f (%.0f%%)", base, mean, sd, sd/mean*100)
}

// TestMultiVMEgressIndependent checks VMs of one DC contend only via
// their own NICs: two VMs in one DC can together exceed a single VM's
// egress cap.
func TestMultiVMEgressIndependent(t *testing.T) {
	regions := geo.TestbedSubset(2)
	cfg := Config{
		Regions: regions,
		VMs:     [][]VMSpec{{substrate.T2Medium, substrate.T2Medium}, {substrate.T2Medium, substrate.T2Medium}},
		Seed:    22, Frozen: true,
	}
	s := NewSim(cfg)
	vms0 := s.VMsOfDC(0)
	vms1 := s.VMsOfDC(1)
	f1 := s.startProbe(vms0[0], vms1[0], 4)
	f2 := s.startProbe(vms0[1], vms1[1], 4)
	s.RunFor(6)
	total := f1.Rate() + f2.Rate()
	if total <= substrate.T2Medium.EgressMbps*1.05 {
		t.Errorf("two-VM DC egress %.0f did not exceed one VM's cap %.0f", total, substrate.T2Medium.EgressMbps)
	}
	f1.Stop()
	f2.Stop()
}
