package netsim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"github.com/wanify/wanify/internal/substrate"
)

// requireMatchesReference compares the simulator's state bit for bit
// with the from-scratch oracle: every flow's rate and cap slack and
// every VM's retransmission attribution. It first requires every VM's
// flow rings to hold what the attribution sums over, and after the
// allocation the groups to be the from-scratch partition.
func requireMatchesReference(t *testing.T, s *Sim, when string) {
	t.Helper()
	requireFlowRings(t, s, when)
	s.ensureAllocated()
	requireGroupsMatchReference(t, s, when)
	wantRates, wantRetrans, wantSlack := s.allocateReferenceSlack()
	for i, f := range s.flows {
		if math.Float64bits(f.rate) != math.Float64bits(wantRates[i]) {
			t.Fatalf("%s: flow #%d (vm %d->%d) rate %v != reference %v", when, f.id, f.src, f.dst, f.rate, wantRates[i])
		}
		if f.capSlack != wantSlack[i] {
			t.Fatalf("%s: flow #%d (vm %d->%d) capSlack %v != reference %v", when, f.id, f.src, f.dst, f.capSlack, wantSlack[i])
		}
	}
	for v := range s.vms {
		if got := s.vms[v].lastRetrans; math.Float64bits(got) != math.Float64bits(wantRetrans[v]) {
			t.Fatalf("%s: vm %d retrans %v != reference %v", when, v, got, wantRetrans[v])
		}
	}
}

// requireFlowRings requires each VM's egress and ingress rings to hold
// exactly its live flows in each direction, in id order.
func requireFlowRings(t *testing.T, s *Sim, when string) {
	t.Helper()
	var want [2][][]FlowID
	for dir := range want {
		want[dir] = make([][]FlowID, len(s.vms))
	}
	for _, f := range s.flows {
		want[egress][f.src] = append(want[egress][f.src], f.id)
		want[ingress][f.dst] = append(want[ingress][f.dst], f.id)
	}
	for v, vm := range s.vms {
		for dir, name := range [2]string{"egress", "ingress"} {
			var got []FlowID
			if last := vm.last[dir]; last != nil {
				for f := last.next[dir]; ; f = f.next[dir] {
					got = append(got, f.id)
					if f == last || len(got) > len(s.flows) {
						break
					}
				}
			}
			if !slices.Equal(got, want[dir][v]) {
				t.Fatalf("%s: vm %d %s ring %v, want live flows %v", when, v, name, got, want[dir][v])
			}
		}
	}
}

// allToAllProbes starts one probe from the first VM of every DC to the
// first VM of every other DC, in row-major order — the shape of
// measure.Snapshot — with conns() connections each.
func allToAllProbes(s *Sim, conns func() int) []*Flow {
	n := s.NumDCs()
	probes := make([]*Flow, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				probes = append(probes, s.startProbe(s.FirstVMOfDC(i), s.FirstVMOfDC(j), conns()))
			}
		}
	}
	return probes
}

func oneConn() int { return 1 }

// TestFlowAndVMFitTheirSizeClass pins the two records the flow rings
// live in at 128 bytes, the size class they held before the rings. A
// Flow one word larger lands in the 144-byte class: DESIGN.md §2
// records that crossing at serve4 +0.3 MB an iteration, and regauge8
// starts thousands of flows an iteration too.
func TestFlowAndVMFitTheirSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Flow{}); n > 128 {
		t.Errorf("Flow is %d bytes, want <= 128", n)
	}
	if n := unsafe.Sizeof(vm{}); n > 128 {
		t.Errorf("vm is %d bytes, want <= 128", n)
	}
}

// rampTimerFires steps the simulator to its next event, which the
// callers arrange to be a ramp timer, and reports whether rampStep
// absorbed it (fast) or handed it to the allocator (left dirt).
func rampTimerFires(t *testing.T, s *Sim) (fast bool) {
	t.Helper()
	s.ensureAllocated()
	before := s.rampFast
	s.stepOnce(math.Inf(1))
	fast = s.rampFast > before
	if fast == s.allocDirty {
		t.Fatalf("rampFast moved=%v but allocDirty=%v: the event was not exactly one ramp step", fast, s.allocDirty)
	}
	requireMatchesReference(t, s, "after ramp step")
	return fast
}

// lonePairSim is a frozen two-DC simulator whose single VM per DC has
// the given egress capacity (ingress is left far above it) and the
// given ramp floor (0 keeps rampMinFactor).
func lonePairSim(egressMbps, minFactor float64) *Sim {
	spec := substrate.T2Medium
	spec.EgressMbps = egressMbps
	spec.IngressMbps = 1e6
	s := NewSim(FleetCluster(2, 1, spec, 7))
	if minFactor != 0 {
		s.rampMinFactor = minFactor
	}
	return s
}

// TestRampStepSlowPathBoundaries pins the cases rampStep must not
// absorb: each takes the refill, and the refilled state matches the
// oracle.
func TestRampStepSlowPathBoundaries(t *testing.T) {
	t.Run("cap-bound", func(t *testing.T) {
		s := lonePairSim(1e5, 0) // the VM never binds
		f := s.startProbe(0, 1, 1)
		for step := 1; step <= 3; step++ {
			if f.Rate() != f.capMbps || f.capSlack {
				t.Fatalf("step %d: rate %v cap %v slack %v, want a cap-bound flow", step, f.rate, f.capMbps, f.capSlack)
			}
			if rampTimerFires(t, s) {
				t.Fatalf("step %d of a cap-bound flow took the fast path", step)
			}
		}
	})

	t.Run("cap-and-vm-tie", func(t *testing.T) {
		// Egress capacity equal, to the bit, to the flow's first-level
		// cap: one round exhausts both resources and freezes the flow on
		// both, so its cap is not slack although the VM binds too.
		probe := lonePairSim(1e5, 0)
		minF := probe.rampMinFactor
		s := lonePairSim(probe.PerConnCapMbps(0, 1)*minF, 0)
		f := s.startProbe(0, 1, 1)
		if f.Rate() != f.capMbps || f.rate != s.vms[0].spec.EgressMbps {
			t.Fatalf("rate %v cap %v egress %v: not a tie", f.rate, f.capMbps, s.vms[0].spec.EgressMbps)
		}
		if rampTimerFires(t, s) {
			t.Fatal("a flow frozen by its cap and its VM in one round took the fast path")
		}
		// One level up the cap clears the VM-bound rate: now it is inert.
		if f.Rate() >= f.capMbps || !f.capSlack {
			t.Fatalf("rate %v cap %v slack %v after the refill, want VM-bound", f.rate, f.capMbps, f.capSlack)
		}
		if !rampTimerFires(t, s) {
			t.Fatal("the VM-bound flow's next step took the slow path")
		}
	})

	t.Run("severed", func(t *testing.T) {
		// 200 single-connection probes out of one VM are VM-bound, so
		// unpartitioned their ramp steps are inert; with the pair
		// severed across every boundary, none may be absorbed.
		run := func(partition bool) int {
			s := NewSim(FleetCluster(2, 1, substrate.T2Medium, 7))
			for k := 0; k < 200; k++ {
				s.startProbe(0, 1, 1)
			}
			if partition {
				s.PartitionDC(1, 0, 1e9)
			}
			for s.now < 5 {
				s.stepOnce(5)
				requireMatchesReference(t, s, fmt.Sprintf("partition=%v t=%.6f", partition, s.now))
			}
			return s.rampFast
		}
		if n := run(false); n != 600 {
			t.Fatalf("control: %d of 600 ramp steps took the fast path", n)
		}
		if n := run(true); n != 0 {
			t.Fatalf("%d ramp steps of severed flows took the fast path", n)
		}
	})

	t.Run("margin", func(t *testing.T) {
		// Ramp levels 1e-10 apart: the flow is VM-bound and slack at the
		// first level (cap − rate = 1.4e-9·cap > eps·cap), and no later
		// level clears the rate by the 2·eps·cap the fast path demands.
		probe := lonePairSim(1e5, 0)
		p := probe.PerConnCapMbps(0, 1)
		s := lonePairSim(p*(1-1.5e-9), 1-1e-10)
		f := s.startProbe(0, 1, 1)
		if f.Rate() >= f.capMbps || !f.capSlack {
			t.Fatalf("rate %v cap %v slack %v, want VM-bound and slack", f.rate, f.capMbps, f.capSlack)
		}
		for step := 1; step <= 3; step++ {
			if rampTimerFires(t, s) {
				t.Fatalf("step %d cleared the rate by %g of %g and took the fast path", step, f.capMbps-f.rate, f.capMbps)
			}
		}
	})
}

// TestDenseProbeWindowAllocations locks the count the fast path exists
// for: a one-second all-to-all single-connection probe window — the
// shape of measure.Snapshot — is a handful of water-fills, not one per
// ramp step (824 on 24 DCs and 85 on 8 before rampStep).
func TestDenseProbeWindowAllocations(t *testing.T) {
	for _, dcs := range []int{8, 24} {
		s := NewSim(FleetCluster(dcs, 1, substrate.T2Medium, 2025))
		allToAllProbes(s, oneConn)
		// Every allocation of the window happens at the top of a
		// stepOnce, exactly when it finds dirt.
		fills := 0
		for s.now < 1 {
			if s.allocDirty {
				fills++
			}
			s.stepOnce(1)
		}
		t.Logf("%d DCs: %d allocations, %d ramp steps absorbed", dcs, fills, s.rampFast)
		if fills > 16 {
			t.Errorf("%d DCs: %d allocations in a 1 s all-to-all probe window, want <= 16", dcs, fills)
		}
	}
}
