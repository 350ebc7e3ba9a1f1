package netsim

import (
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// Tests for the sharded water-filling path: bottleneck-group
// partitioning and group-scoped refills. The churn here uses a
// multi-VM topology with random VM endpoints so the flow set genuinely
// decomposes into several groups (the single-VM churnSim workload is
// usually one component).

// shardedSim builds an 8-DC × 3-VM simulator (24 VMs).
func shardedSim(seed uint64) *Sim {
	regions := geo.TestbedSubset(8)
	vms := make([][]VMSpec, len(regions))
	for i := range vms {
		vms[i] = []VMSpec{substrate.T2Medium, substrate.T2Medium, substrate.T2Medium}
	}
	return NewSim(Config{Regions: regions, VMs: vms, Seed: seed})
}

// TestShardedMatchesSequentialLockstep drives a churn schedule through
// the sharded allocator and checks after every step that all rates and
// retransmission attributions are bit-identical to the from-scratch
// reference. It also asserts the schedule actually produced
// multi-group allocations, and allocations that refilled more than one
// group, so scoped refill across groups is known to have run.
func TestShardedMatchesSequentialLockstep(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		s := shardedSim(seed)
		nVMs := s.NumVMs()
		rng := simrand.Derive(seed, "sharded-lockstep")
		var live []*Flow
		maxGroups := 0
		multiRefills := 0
		for step := 0; step < 150; step++ {
			switch op := rng.IntN(10); {
			case op < 4 || len(live) == 0: // start a random VM-to-VM flow
				src := rng.IntN(nVMs)
				dst := rng.IntN(nVMs)
				for s.DCOf(VMID(dst)) == s.DCOf(VMID(src)) {
					dst = rng.IntN(nVMs)
				}
				conns := rng.IntN(8) + 1
				probe := rng.IntN(2) == 0
				bytes := float64(rng.IntN(200)+1) * 1e6
				if probe {
					live = append(live, s.startProbe(VMID(src), VMID(dst), conns))
				} else {
					live = append(live, s.startFlow(VMID(src), VMID(dst), conns, bytes, nil))
				}
			case op < 6: // finish
				k := rng.IntN(len(live))
				live[k].Stop()
				live = append(live[:k], live[k+1:]...)
			case op < 7: // resize
				k := rng.IntN(len(live))
				live[k].SetConns(rng.IntN(10) + 1)
			case op < 8: // CPU load
				v := VMID(rng.IntN(nVMs))
				s.SetCPULoad(v, rng.Float64())
			case op < 9: // pair limit
				src := rng.IntN(8)
				dst := (src + rng.IntN(7) + 1) % 8
				clear := rng.IntN(3) == 0
				limit := float64(rng.IntN(900) + 100)
				if clear {
					s.ClearPairLimit(src, dst)
				} else {
					s.SetPairLimit(src, dst, limit)
				}
			default: // let time pass (fires ramps, fluct steps, completions)
				s.RunFor(rng.Float64() * 2)
			}
			kept := live[:0]
			for _, f := range live {
				if !f.Done() {
					kept = append(kept, f)
				}
			}
			live = kept
			s.ensureAllocated()
			wantRates, wantRetrans := s.allocateReference()
			for j, f := range s.flows {
				if f.rate != wantRates[j] {
					t.Fatalf("seed %d step %d: flow %d rate %v != reference %v",
						seed, step, f.id, f.rate, wantRates[j])
				}
			}
			for v := 0; v < nVMs; v++ {
				if got := s.vms[v].lastRetrans; got != wantRetrans[v] {
					t.Fatalf("seed %d step %d: vm %d retrans %v != reference %v",
						seed, step, v, got, wantRetrans[v])
				}
			}
			if g, refilled := s.AllocGroups(); g > maxGroups {
				maxGroups = g
			} else if g > 1 && refilled > 1 {
				multiRefills++
			}
		}
		if maxGroups < 2 {
			t.Fatalf("seed %d: churn never produced a multi-group allocation (max groups %d)", seed, maxGroups)
		}
		if multiRefills == 0 {
			t.Fatalf("seed %d: no allocation refilled more than one group; scoped refill across groups untested", seed)
		}
	}
}

// TestScopedRefillCounters pins the group-scoped invalidation contract
// on a hand-built multi-group workload: disjoint flows form separate
// groups, an event on one group refills only that group, untouched
// groups keep their rates verbatim, and merges/splits are tracked.
func TestScopedRefillCounters(t *testing.T) {
	cfg := UniformCluster(geo.TestbedSubset(8), substrate.T2Medium, 3)
	cfg.Frozen = true
	s := NewSim(cfg)

	// Four disjoint DC pairs → four bottleneck groups.
	flows := []*Flow{
		s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 2),
		s.startProbe(s.FirstVMOfDC(2), s.FirstVMOfDC(3), 3),
		s.startProbe(s.FirstVMOfDC(4), s.FirstVMOfDC(5), 4),
		s.startProbe(s.FirstVMOfDC(6), s.FirstVMOfDC(7), 5),
	}
	s.ensureAllocated()
	if g, refilled := s.AllocGroups(); g != 4 || refilled != 4 {
		t.Fatalf("initial allocation: groups=%d refilled=%d, want 4/4", g, refilled)
	}
	before := make([]float64, len(flows))
	for i, f := range flows {
		before[i] = f.rate
	}

	// Resize one flow: only its group refills; the others keep their
	// rates bit-for-bit.
	flows[0].SetConns(6)
	s.ensureAllocated()
	if g, refilled := s.AllocGroups(); g != 4 || refilled != 1 {
		t.Fatalf("after resize: groups=%d refilled=%d, want 4/1", g, refilled)
	}
	if flows[0].rate == before[0] {
		t.Fatal("resized flow rate did not change")
	}
	for i := 1; i < 4; i++ {
		if flows[i].rate != before[i] {
			t.Fatalf("untouched flow %d rate changed: %v vs %v", i, flows[i].rate, before[i])
		}
	}

	// A flow bridging DC1 and DC2 merges two groups into one.
	bridge := s.startProbe(s.FirstVMOfDC(1), s.FirstVMOfDC(2), 1)
	s.ensureAllocated()
	if g, refilled := s.AllocGroups(); g != 3 || refilled != 1 {
		t.Fatalf("after merge: groups=%d refilled=%d, want 3/1", g, refilled)
	}

	// Removing the bridge splits the merged group back into two; both
	// fragments refill, the untouched groups do not.
	bridge.Stop()
	s.ensureAllocated()
	if g, refilled := s.AllocGroups(); g != 4 || refilled != 2 {
		t.Fatalf("after split: groups=%d refilled=%d, want 4/2", g, refilled)
	}

	// A tc limit covering the DC4→DC5 pair dirties that group only.
	s.SetPairLimit(4, 5, 200)
	s.ensureAllocated()
	if g, refilled := s.AllocGroups(); g != 4 || refilled != 1 {
		t.Fatalf("after tc limit: groups=%d refilled=%d, want 4/1", g, refilled)
	}
	if flows[2].rate > 200*1.0001 {
		t.Fatalf("tc-limited flow rate %v exceeds limit", flows[2].rate)
	}
}
