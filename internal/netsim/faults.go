package netsim

// Fault injection. Faults are part of the experiment configuration —
// nothing in the simulator's own stochastic machinery ever kills a VM
// or severs a pair — and they act through the ordinary timer queue, so
// a run with a fault schedule is exactly as deterministic as one
// without, and a run with an empty schedule is byte-identical to a
// build that predates the fault model.
//
// Semantics (the substrate contract, substrate.Cluster):
//
//   - KillVM: the VM dies at t, permanently. Every active flow with an
//     endpoint on it fails at that instant (onFail fires, onDone never
//     does); new flows against it are born failed. Failures are applied
//     in flow-id order so callbacks observe a deterministic sequence.
//   - PartitionDC: while a partition covers a DC, every inter-DC pair
//     involving it has achievable rate zero — the allocator forces the
//     per-flow cap to 0, so flows stall rather than fail, and resume
//     when the partition heals. The severing is held as separate state
//     (not via SetPerConnCap) so a trace replay's sample-boundary cap
//     updates cannot resurrect a partitioned pair mid-partition.
//   - ResetPair: every flow active on the pair at t fails — the
//     mid-transfer connection-reset fault.

import "math"

// KillVM schedules the VM to die at absolute simulated time t (or
// immediately when t <= Now). Death is permanent.
func (s *Sim) KillVM(id VMID, t float64) {
	if t <= s.now {
		s.killVM(id)
		return
	}
	s.at(t, func(float64) { s.killVM(id) })
}

func (s *Sim) killVM(id VMID) {
	v := s.vms[id]
	if v.dead {
		return
	}
	v.dead = true
	// The victims are the VM's two flow rings, each in id order and
	// disjoint (src != dst). Merged by id, the onFail callbacks fire in
	// the same deterministic sequence as completions.
	var victims []*Flow
	var next [2]*Flow // each ring's oldest unvisited flow; nil when done
	for dir, last := range v.last {
		if last != nil {
			next[dir] = last.next[dir]
		}
	}
	for next[egress] != nil || next[ingress] != nil {
		dir := egress
		if next[egress] == nil || next[ingress] != nil && next[ingress].id < next[egress].id {
			dir = ingress
		}
		f := next[dir]
		victims = append(victims, f)
		if next[dir] = f.next[dir]; f == v.last[dir] {
			next[dir] = nil
		}
	}
	for _, f := range victims {
		s.failFlow(f)
	}
}

// VMAlive reports whether the VM is accepting flows.
func (s *Sim) VMAlive(id VMID) bool { return !s.vms[id].dead }

// PartitionDC severs dc from the rest of the cluster during
// [from, until): every inter-DC pair involving it has achievable rate
// zero while the partition holds. Overlapping partitions compose. A
// NaN bound panics (as every timer at a NaN instant does) before either
// end is applied.
func (s *Sim) PartitionDC(dc int, from, until float64) {
	if math.IsNaN(from) || math.IsNaN(until) {
		panic("netsim: a partition with a NaN bound")
	}
	if until <= from {
		return
	}
	begin := func(float64) {
		s.partActive[dc]++
		if s.partActive[dc] == 1 && s.interDCFlow > 0 {
			s.invalidate()
		}
	}
	if from <= s.now {
		begin(s.now)
	} else {
		s.at(from, begin)
	}
	s.at(until, func(float64) {
		s.partActive[dc]--
		if s.partActive[dc] == 0 && s.interDCFlow > 0 {
			s.invalidate()
		}
	})
}

// severed reports whether a pair's achievable rate is currently forced
// to zero by an active partition. Intra-DC traffic is never severed.
func (s *Sim) severed(srcDC, dstDC int) bool {
	return srcDC != dstDC && (s.partActive[srcDC] > 0 || s.partActive[dstDC] > 0)
}

// ResetPair aborts every flow active on the (srcDC, dstDC) pair at
// absolute time t. The affected flows fail; later flows on the pair
// are unaffected.
func (s *Sim) ResetPair(srcDC, dstDC int, t float64) {
	fire := func(float64) {
		// Copy: failFlow edits the pair list. Pair lists are kept in
		// start order, so the failure sequence is deterministic.
		p := s.lookupPair(srcDC, dstDC)
		if p == nil {
			return
		}
		victims := append([]*Flow(nil), p.flows...)
		for _, f := range victims {
			s.failFlow(f)
		}
	}
	if t <= s.now {
		fire(s.now)
	} else {
		s.at(t, fire)
	}
}

// failFlow terminates a flow with failure semantics: it leaves the
// active set like any finished flow, but Failed() turns true, onDone
// never fires and onFail does.
func (s *Sim) failFlow(f *Flow) {
	if f.done {
		return
	}
	f.failed = true
	s.finishFlow(f)
}
