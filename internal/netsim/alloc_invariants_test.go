package netsim

import (
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

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
