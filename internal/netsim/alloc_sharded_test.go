package netsim

import (
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// Tests for the sharded water-filling path: bottleneck-group
// partitioning, worker-pool dispatch, and group-scoped refills. The
// churn here uses a multi-VM topology with random VM endpoints so the
// flow set genuinely decomposes into several groups (the single-VM
// churnSim workload is usually one component).

// shardedSim builds an 8-DC × 3-VM simulator (24 VMs) with the given
// allocator worker count.
func shardedSim(seed uint64, workers int) *Sim {
	regions := geo.TestbedSubset(8)
	vms := make([][]VMSpec, len(regions))
	for i := range vms {
		vms[i] = []VMSpec{substrate.T2Medium, substrate.T2Medium, substrate.T2Medium}
	}
	return NewSim(Config{Regions: regions, VMs: vms, Seed: seed, Workers: workers})
}

// TestShardedMatchesSequentialLockstep drives identical churn schedules
// through simulators that differ only in Workers and checks after every
// step that all rates and retransmission attributions are bit-identical
// across worker counts and to the from-scratch reference. It also
// asserts the schedule actually produced multi-group allocations, so
// the parallel dispatch path is known to have run.
func TestShardedMatchesSequentialLockstep(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		workerCounts := []int{0, 2, 7}
		sims := make([]*Sim, len(workerCounts))
		for i, w := range workerCounts {
			sims[i] = shardedSim(seed, w)
		}
		base := sims[0]
		nVMs := base.NumVMs()
		rng := simrand.Derive(seed, "sharded-lockstep")
		live := make([][]*Flow, len(sims)) // live[i][k] is the same flow in sim i
		maxGroups := 0
		parallelAllocs := 0
		for step := 0; step < 150; step++ {
			switch op := rng.IntN(10); {
			case op < 4 || len(live[0]) == 0: // start a random VM-to-VM flow
				src := rng.IntN(nVMs)
				dst := rng.IntN(nVMs)
				for base.DCOf(VMID(dst)) == base.DCOf(VMID(src)) {
					dst = rng.IntN(nVMs)
				}
				conns := rng.IntN(8) + 1
				probe := rng.IntN(2) == 0
				bytes := float64(rng.IntN(200)+1) * 1e6
				for i, s := range sims {
					if probe {
						live[i] = append(live[i], s.startProbe(VMID(src), VMID(dst), conns))
					} else {
						live[i] = append(live[i], s.startFlow(VMID(src), VMID(dst), conns, bytes, nil))
					}
				}
			case op < 6: // finish
				k := rng.IntN(len(live[0]))
				for i := range sims {
					live[i][k].Stop()
					live[i] = append(live[i][:k], live[i][k+1:]...)
				}
			case op < 7: // resize
				k := rng.IntN(len(live[0]))
				n := rng.IntN(10) + 1
				for i := range sims {
					live[i][k].SetConns(n)
				}
			case op < 8: // CPU load
				v := VMID(rng.IntN(nVMs))
				load := rng.Float64()
				for _, s := range sims {
					s.SetCPULoad(v, load)
				}
			case op < 9: // pair limit
				src := rng.IntN(8)
				dst := (src + rng.IntN(7) + 1) % 8
				clear := rng.IntN(3) == 0
				limit := float64(rng.IntN(900) + 100)
				for _, s := range sims {
					if clear {
						s.ClearPairLimit(src, dst)
					} else {
						s.SetPairLimit(src, dst, limit)
					}
				}
			default: // let time pass (same seed ⇒ same fluctuation weather)
				d := rng.Float64() * 2
				for _, s := range sims {
					s.RunFor(d)
				}
			}
			for i := range sims {
				kept := live[i][:0]
				for _, f := range live[i] {
					if !f.Done() {
						kept = append(kept, f)
					}
				}
				live[i] = kept
			}
			for _, s := range sims {
				s.ensureAllocated()
			}
			wantRates, wantRetrans := base.allocateReference()
			for i, s := range sims {
				for j, f := range s.flows {
					if f.rate != wantRates[j] {
						t.Fatalf("seed %d step %d: workers=%d flow %d rate %v != reference %v",
							seed, step, workerCounts[i], f.id, f.rate, wantRates[j])
					}
				}
				for v := 0; v < nVMs; v++ {
					if got := s.vms[v].lastRetrans; got != wantRetrans[v] {
						t.Fatalf("seed %d step %d: workers=%d vm %d retrans %v != reference %v",
							seed, step, workerCounts[i], v, got, wantRetrans[v])
					}
				}
			}
			if g, refilled := sims[len(sims)-1].AllocGroups(); g > maxGroups {
				maxGroups = g
				_ = refilled
			} else if g > 1 && refilled > 1 {
				parallelAllocs++
			}
		}
		if maxGroups < 2 {
			t.Fatalf("seed %d: churn never produced a multi-group allocation (max groups %d)", seed, maxGroups)
		}
		if parallelAllocs == 0 {
			t.Fatalf("seed %d: no allocation refilled more than one group; parallel dispatch untested", seed)
		}
	}
}

// TestShardedChurnInvariants runs the standard allocator invariants —
// reference equivalence, repeated-allocate determinism and resource
// conservation — against the sharded path at Workers>1 on the churnSim
// workload (mirrors the Workers=0 tests in alloc_invariants_test.go).
func TestShardedChurnInvariants(t *testing.T) {
	churnSimWorkers(t, 17, 120, 4, func(s *Sim) {
		s.ensureAllocated()
		wantRates, wantRetrans := s.allocateReference()
		for i, f := range s.flows {
			if f.rate != wantRates[i] {
				t.Fatalf("flow %d rate %v != reference %v", f.id, f.rate, wantRates[i])
			}
		}
		for v := 0; v < s.NumVMs(); v++ {
			if got := s.vms[v].lastRetrans; got != wantRetrans[v] {
				t.Fatalf("vm %d retrans %v != reference %v", v, got, wantRetrans[v])
			}
		}
		// Repeated allocation with unchanged inputs must reproduce the
		// same rates (worker scratch slabs must not leak state).
		first := make(map[FlowID]float64, len(s.flows))
		for _, f := range s.flows {
			first[f.id] = f.rate
		}
		s.invalidate()
		s.ensureAllocated()
		for _, f := range s.flows {
			if f.rate != first[f.id] {
				t.Fatalf("flow %d rate changed across identical sharded allocations: %v vs %v", f.id, f.rate, first[f.id])
			}
		}
	})
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
