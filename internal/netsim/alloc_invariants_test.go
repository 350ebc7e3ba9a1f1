package netsim

import (
	"fmt"
	"math"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// churnSim drives a simulator through a deterministic random schedule
// of flow starts/finishes, connection resizes, CPU-load changes and
// pair-limit changes — the full invalidation surface of the allocator —
// calling check after each step. Fluctuation is on, so the incremental
// invalidation scoping is exercised too.
func churnSim(t *testing.T, seed uint64, steps int, check func(s *Sim)) {
	t.Helper()
	s := NewSim(UniformCluster(geo.TestbedSubset(6), substrate.T2Medium, seed))
	rng := simrand.Derive(seed, "churn-test")
	var live []*Flow
	for step := 0; step < steps; step++ {
		switch op := rng.IntN(10); {
		case op < 4 || len(live) == 0: // start
			src := rng.IntN(6)
			dst := rng.IntN(6)
			if src == dst {
				dst = (dst + 1) % 6
			}
			conns := rng.IntN(8) + 1
			if rng.IntN(2) == 0 {
				live = append(live, s.startProbe(s.FirstVMOfDC(src), s.FirstVMOfDC(dst), conns))
			} else {
				live = append(live, s.startFlow(s.FirstVMOfDC(src), s.FirstVMOfDC(dst), conns, float64(rng.IntN(200)+1)*1e6, nil))
			}
		case op < 6: // finish
			i := rng.IntN(len(live))
			live[i].Stop()
			live = append(live[:i], live[i+1:]...)
		case op < 7: // resize
			live[rng.IntN(len(live))].SetConns(rng.IntN(10) + 1)
		case op < 8: // CPU load
			s.SetCPULoad(VMID(rng.IntN(s.NumVMs())), rng.Float64())
		case op < 9: // pair limit
			src := rng.IntN(6)
			dst := (src + rng.IntN(5) + 1) % 6
			if rng.IntN(3) == 0 {
				s.ClearPairLimit(src, dst)
			} else {
				s.SetPairLimit(src, dst, float64(rng.IntN(900)+100))
			}
		default: // let time pass (fires ramps, fluct steps, completions)
			s.RunFor(rng.Float64() * 2)
		}
		// Drop flows that completed on their own during RunFor.
		kept := live[:0]
		for _, f := range live {
			if !f.Done() {
				kept = append(kept, f)
			}
		}
		live = kept
		check(s)
	}
}

// TestIncrementalMatchesFromScratch locks the core refactoring
// contract: under arbitrary churn, the incremental allocator produces
// bit-identical rates and retransmission attributions to the original
// from-scratch allocator (allocateReference).
func TestIncrementalMatchesFromScratch(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		churnSim(t, seed, 120, func(s *Sim) {
			requireMatchesReference(t, s, fmt.Sprintf("seed %d", seed))
		})
	}
}

// TestIncrementalCountersMatchScan checks the incrementally maintained
// per-VM connection counts and per-pair flow lists against full
// rescans of the active flow set.
func TestIncrementalCountersMatchScan(t *testing.T) {
	churnSim(t, 7, 150, func(s *Sim) {
		n := s.NumDCs()
		conns := make([]int, s.NumVMs())
		pairs := make([]int, n*n)
		interDC := 0
		for _, f := range s.flows {
			conns[f.src] += int(f.conns)
			conns[f.dst] += int(f.conns)
			pairs[s.pairKey(int(f.srcDC), int(f.dstDC))]++
			if f.srcDC != f.dstDC {
				interDC++
			}
		}
		for v := range conns {
			if s.vmConns[v] != conns[v] {
				t.Fatalf("vmConns[%d] = %d, scan says %d", v, s.vmConns[v], conns[v])
			}
		}
		for k := range pairs {
			got := 0
			if p := s.lookupPair(k/n, k%n); p != nil {
				got = len(p.flows)
				if s.pairByIdx(p.idx) != p || s.pairAt[k] != p.idx+1 {
					t.Fatalf("pair %d: record ordinal %d, pairAt %d", k, p.idx, s.pairAt[k])
				}
			}
			if got != pairs[k] {
				t.Fatalf("pair %d has %d flows, scan says %d", k, got, pairs[k])
			}
		}
		if s.interDCFlow != interDC {
			t.Fatalf("interDCFlow = %d, scan says %d", s.interDCFlow, interDC)
		}
	})
}

// TestAllocationConservation property-checks resource conservation
// under churn: no VM NIC, pair limit or per-flow cap envelope is ever
// exceeded by the allocated rates.
func TestAllocationConservation(t *testing.T) {
	const slack = 1.0001
	churnSim(t, 11, 120, func(s *Sim) {
		s.ensureAllocated()
		egress := make([]float64, s.NumVMs())
		ingress := make([]float64, s.NumVMs())
		pairRate := make([]float64, s.numPairs)
		for _, f := range s.flows {
			if f.rate < 0 {
				t.Fatalf("flow %d has negative rate %v", f.id, f.rate)
			}
			egress[f.src] += f.rate
			ingress[f.dst] += f.rate
			p := s.flowPair(f)
			pairRate[p.idx] += f.rate
			// Per-flow cap envelope (fluctuation can only cut below the
			// nominal per-connection cap by a bounded factor; use the
			// exact current factor).
			fl := 1.0
			if p.fluct != nil {
				fl = p.fluct.factor()
			}
			capF := float64(f.conns) * p.connBase * fl
			if f.rate > capF*slack {
				t.Fatalf("flow %d rate %v exceeds cap envelope %v", f.id, f.rate, capF)
			}
		}
		for v := 0; v < s.NumVMs(); v++ {
			over := float64(s.vmConns[v] - s.cfg.CongestionKnee)
			if over < 0 {
				over = 0
			}
			cong := 1 / (1 + congestionSlope*over)
			if egress[v] > s.vms[v].spec.EgressMbps*cong*slack {
				t.Fatalf("vm %d egress %v exceeds %v", v, egress[v], s.vms[v].spec.EgressMbps*cong)
			}
			if ingress[v] > s.vms[v].spec.IngressMbps*cong*slack {
				t.Fatalf("vm %d ingress %v exceeds %v", v, ingress[v], s.vms[v].spec.IngressMbps*cong)
			}
		}
		for idx, rate := range pairRate {
			if limit := s.pairByIdx(int32(idx)).limit; !math.IsNaN(limit) && rate > limit*slack {
				t.Fatalf("pair #%d rate %v exceeds tc limit %v", idx, rate, limit)
			}
		}
	})
}

// TestRepeatedAllocateDeterministic checks that re-running the
// allocator with unchanged inputs reproduces identical rates — the
// scratch slabs must not leak state between invocations.
func TestRepeatedAllocateDeterministic(t *testing.T) {
	churnSim(t, 13, 60, func(s *Sim) {
		s.ensureAllocated()
		first := make(map[FlowID]float64, len(s.flows))
		for _, f := range s.flows {
			first[f.id] = f.rate
		}
		retrans := make([]float64, s.NumVMs())
		for v := range retrans {
			retrans[v] = s.vms[v].lastRetrans
		}
		s.invalidate()
		s.ensureAllocated()
		for _, f := range s.flows {
			if f.rate != first[f.id] {
				t.Fatalf("flow %d rate changed across identical allocations: %v vs %v", f.id, f.rate, first[f.id])
			}
		}
		for v := range retrans {
			if s.vms[v].lastRetrans != retrans[v] {
				t.Fatalf("vm %d retrans changed across identical allocations", v)
			}
		}
	})
}

// TestScopedInvalidationSkipsCleanAllocations checks the dirty-set
// scoping: fluctuation steps with no inter-DC flows, CPU changes on
// idle VMs and tc changes on empty pairs must not mark the allocation
// dirty, while the same events with affected flows must.
func TestScopedInvalidationSkipsCleanAllocations(t *testing.T) {
	cfg := UniformCluster(geo.TestbedSubset(3), substrate.T2Medium, 5)
	s := NewSim(cfg) // fluctuation on
	s.RunFor(2)      // let a fluct step fire with zero flows
	s.ensureAllocated()
	if s.allocDirty {
		t.Fatal("allocation dirty after ensureAllocated")
	}
	s.RunFor(1.1) // another fluct step, still no flows
	if s.allocDirty {
		t.Error("fluct step with no inter-DC flows dirtied the allocation")
	}
	s.SetCPULoad(s.FirstVMOfDC(0), 0.8)
	if s.allocDirty {
		t.Error("CPU change on a VM with no flows dirtied the allocation")
	}
	s.SetPairLimit(0, 1, 500)
	if s.allocDirty {
		t.Error("tc limit on a pair with no flows dirtied the allocation")
	}
	f := s.startProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 2)
	if !s.allocDirty {
		t.Error("starting a flow did not dirty the allocation")
	}
	s.ensureAllocated()
	s.SetCPULoad(s.FirstVMOfDC(0), 0.3)
	if !s.allocDirty {
		t.Error("CPU change on a VM with flows did not dirty the allocation")
	}
	s.ensureAllocated()
	s.SetPairLimit(0, 1, 400)
	if !s.allocDirty {
		t.Error("tc change on a pair with flows did not dirty the allocation")
	}
	f.Stop()
}
