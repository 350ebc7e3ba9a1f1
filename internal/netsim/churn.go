package netsim

import (
	"math"
	"slices"
)

// Flow-churn bookkeeping: the bottleneck-group index maintained as
// flows start and finish.
//
// # Bottleneck groups
//
// Two flows interact in the allocator only when they share a resource:
// a VM's egress/ingress capacity, or a per-DC-pair `tc` limit. The
// transitive closure of "shares a resource" partitions the active flow
// set into independent bottleneck groups — connected components of the
// graph whose vertices are VMs and whose edges are (src, dst) per flow,
// plus links between flows on the same rate-limited DC pair. Groups
// share no state, so each can be water-filled on its own, in any order,
// with bit-identical results (see alloc.go).
//
// At paper scale (≤8 DCs, all-to-all shuffles) the whole flow set is
// one group and grouping changes nothing; the win appears at fleet
// scale, where traffic decomposes into many independent components and
// allocation cost drops from (total rounds × total flows) to the sum
// of each group's own rounds × flows.
//
// Groups persist across allocations, each a record holding its live
// flows in id order, and an event costs only the group it touches. A
// flow start joins its endpoints' groups (and a limited pair's), which
// can only merge them: the merged record takes the others' flows by an
// id-order merge. A finish or a cleared limit can split a group, so it
// only marks the group; the next allocation re-derives that group alone
// by union-find over its own flows and limited-pair links. A VM's group
// is vmGroup[v] while the VM carries flows. Every event that can move a
// group's rates pushes the group on the dirty list, and the allocation
// fills exactly the listed groups (with their fragments) — the groups
// holding a VM whose group an event touched since the last allocation,
// or a VM that carried no flow then — and keeps every other group's
// rates and retransmission attributions as they stand. A group's ver
// names its structure (its flow set, their connection counts, its
// pair limits): every change of one takes a fresh number, which is
// what the fill's table cache keys on (alloc.go, layer 3).

// groupIndex is the Sim's bottleneck-group state.
type groupIndex struct {
	// groups holds every record ever made, live or free; free lists the
	// free slots, whose flow storage the next group reuses. live counts
	// the live records.
	groups []*group
	free   []int32
	live   int

	// vmGroup[v] is the slot of v's group while v carries flows, and
	// stale otherwise.
	vmGroup []int32

	// dirty lists the slots whose group an event touched since the last
	// allocation (group.dirty marks them, so none is listed twice);
	// dirtyAll refills every group (fluctuation ticks, partitions).
	dirty    []int32
	dirtyAll bool

	// nextVer is the last structure version handed out; 0 is "never
	// built" in fillScratch.
	nextVer uint64

	// Re-derivation scratch: a union-find over VM ids (epoch stamped,
	// so a pass costs the group's VMs, not the Sim's), the fragment
	// ordinal of each root, and each fragment's slot.
	parent    []VMID
	ufEpoch   []uint32
	epoch     uint32
	fragOf    []int32 // per root VM: fragment ordinal (epoch-stamped)
	fragEpoch []uint32
	frags     []int32

	// pairFirst links flows that share a rate-limited DC pair during a
	// re-derivation: first source VM seen per pair ordinal, reset via
	// the touched list. Sized to the pair store lazily, only when limits
	// exist.
	pairFirst   []VMID
	pairFirstOK []bool
	pairTouched []int32
}

// group is one bottleneck group.
type group struct {
	flows []*Flow // live members, in id order
	ver   uint64  // structure version (see the header)
	live  bool
	dirty bool // on the dirty list
	split bool // lost a flow or a limit link: re-derive before filling
}

// init sizes the per-VM slabs; the VM set never changes.
func (g *groupIndex) init(nVMs int) {
	g.vmGroup = make([]int32, nVMs)
	g.parent = make([]VMID, nVMs)
	g.ufEpoch = make([]uint32, nVMs)
	g.fragOf = make([]int32, nVMs)
	g.fragEpoch = make([]uint32, nVMs)
}

// newGroup returns the slot of an empty live group, recycling a free
// one. Its version is left as it was: the caller touches it.
func (g *groupIndex) newGroup() int32 {
	g.live++
	if n := len(g.free); n > 0 {
		k := g.free[n-1]
		g.free = g.free[:n-1]
		g.groups[k].live = true
		return k
	}
	g.groups = append(g.groups, &group{live: true})
	return int32(len(g.groups) - 1)
}

// release frees an empty group's slot. A listed slot stays listed (and
// marked), so a group that reuses it is listed once.
func (g *groupIndex) release(k int32) {
	gr := g.groups[k]
	gr.live, gr.split = false, false
	g.live--
	g.free = append(g.free, k)
}

// mark lists group k for the next allocation's refill.
func (g *groupIndex) mark(k int32) {
	if gr := g.groups[k]; !gr.dirty {
		gr.dirty = true
		g.dirty = append(g.dirty, k)
	}
}

// touch records a structure change of group k: a fresh version, and a
// refill.
func (g *groupIndex) touch(k int32) {
	g.nextVer++
	g.groups[k].ver = g.nextVer
	g.mark(k)
}

// merge joins groups a and b (either may be -1, none) and returns the
// survivor's slot. The survivor takes the other's flows by an id-order
// merge and its VMs; the other is released. The caller touches the
// survivor.
func (g *groupIndex) merge(a, b int32) int32 {
	if a < 0 || a == b {
		return b
	}
	if b < 0 {
		return a
	}
	ga, gb := g.groups[a], g.groups[b]
	if len(ga.flows) < len(gb.flows) {
		a, b, ga, gb = b, a, gb, ga
	}
	// Merge from the back into ga's grown storage.
	na, nb := len(ga.flows), len(gb.flows)
	ga.flows = slices.Grow(ga.flows, nb)[:na+nb]
	i, j := na-1, nb-1
	for w := na + nb - 1; j >= 0; w-- {
		if i >= 0 && ga.flows[i].id > gb.flows[j].id {
			ga.flows[w] = ga.flows[i]
			i--
		} else {
			ga.flows[w] = gb.flows[j]
			j--
		}
	}
	for _, f := range gb.flows {
		g.vmGroup[f.src], g.vmGroup[f.dst] = a, a
	}
	ga.split = ga.split || gb.split
	clear(gb.flows)
	gb.flows = gb.flows[:0]
	g.release(b)
	return a
}

// join puts f, which addFlow is starting on pair p, into its group:
// its endpoints' groups and, on a limited pair, the group of the pair's
// other flows, merged — or a new group.
func (s *Sim) join(f *Flow, p *pair) {
	g := &s.groups
	k := int32(-1)
	for _, v := range [2]VMID{f.src, f.dst} {
		if s.vmConns[v] > 0 {
			k = g.merge(k, g.vmGroup[v])
		}
	}
	if !math.IsNaN(p.limit) && len(p.flows) > 0 {
		k = g.merge(k, g.vmGroup[p.flows[0].src])
	}
	if k < 0 {
		k = g.newGroup()
	}
	gr := g.groups[k]
	gr.flows = append(gr.flows, f) // the newest id: order kept
	g.vmGroup[f.src], g.vmGroup[f.dst] = k, k
	s.restructureVM(f.src)
}

// leave takes f, which finishFlow is ending, out of its group. The
// finish can split the group, which is then re-derived before the next
// fill, unless another flow still joins f's two VMs as f did (twinned;
// not asked once the group awaits a re-derivation anyway).
func (s *Sim) leave(f *Flow) {
	g := &s.groups
	k := g.vmGroup[f.src]
	gr := g.groups[k]
	i, _ := slices.BinarySearchFunc(gr.flows, f.id, func(h *Flow, id FlowID) int { return int(h.id - id) })
	gr.flows = slices.Delete(gr.flows, i, i+1) // zeroes the vacated tail slot
	if !gr.split && s.twinned(f) {
		s.restructureVM(f.src)
	} else {
		s.splitVM(f.src)
	}
}

// twinned reports whether a live flow other than f runs from f.src to
// f.dst, or back from f.dst to f.src when f's pair is unlimited. Then
// every link f gave the group stays: the edge between its VMs, and on
// a limited pair its source among the pair's flows' sources.
func (s *Sim) twinned(f *Flow) bool {
	v := s.vms[f.src]
	if last := v.last[egress]; last != nil {
		for h := last.next[egress]; ; h = h.next[egress] {
			if h != f && h.dst == f.dst {
				return true
			}
			if h == last {
				break
			}
		}
	}
	if last := v.last[ingress]; last != nil && math.IsNaN(s.flowPair(f).limit) {
		for h := last.next[ingress]; ; h = h.next[ingress] {
			if h.src == f.dst {
				return true
			}
			if h == last {
				break
			}
		}
	}
	return false
}

// resplit re-derives group k from its own flows and limited-pair
// links: union-find, then fragments by first appearance in id order,
// the first keeping slot k. Every fragment is touched (a new flow set,
// or a limit gone), so the allocation fills each of them.
func (g *groupIndex) resplit(s *Sim, k int32) {
	gr := g.groups[k]
	gr.split = false
	flows := gr.flows
	if len(flows) == 0 {
		g.release(k)
		return
	}
	g.epoch++
	for _, f := range flows {
		g.union(f.src, f.dst)
	}
	g.linkLimitedPairs(s, flows)

	g.frags = g.frags[:0]
	for _, f := range flows {
		if r := g.find(f.src); g.fragEpoch[r] != g.epoch {
			g.fragEpoch[r] = g.epoch
			g.fragOf[r] = int32(len(g.frags))
			h := k
			if len(g.frags) > 0 {
				h = g.newGroup()
			}
			g.frags = append(g.frags, h)
		}
	}
	if len(g.frags) > 1 {
		kept := flows[:0]
		for _, f := range flows {
			fr := g.fragOf[g.find(f.src)]
			if fr == 0 {
				kept = append(kept, f)
				continue
			}
			h := g.frags[fr]
			g.groups[h].flows = append(g.groups[h].flows, f)
			g.vmGroup[f.src], g.vmGroup[f.dst] = h, h
		}
		clear(flows[len(kept):])
		gr.flows = kept
	}
	for _, h := range g.frags {
		g.touch(h)
	}
}

// find returns v's current root, lazily initializing the slot for this
// epoch and halving paths as it walks.
func (g *groupIndex) find(v VMID) VMID {
	if g.ufEpoch[v] != g.epoch {
		g.ufEpoch[v] = g.epoch
		g.parent[v] = v
		return v
	}
	for g.parent[v] != v {
		g.parent[v] = g.parent[g.parent[v]] // path halving
		v = g.parent[v]
	}
	return v
}

func (g *groupIndex) union(a, b VMID) {
	ra, rb := g.find(a), g.find(b)
	if ra != rb {
		// Deterministic tie-break (lower VM id wins) so the root of a
		// component is a pure function of its edge set.
		if ra < rb {
			g.parent[rb] = ra
		} else {
			g.parent[ra] = rb
		}
	}
}

// linkLimitedPairs adds the pair-limit edges: every flow on a
// rate-limited DC pair is linked to the first flow seen on that pair,
// so the shared `tc` resource keeps its users in one group even when
// they touch disjoint VMs (multi-VM DCs).
func (g *groupIndex) linkLimitedPairs(s *Sim, flows []*Flow) {
	if s.numLimits == 0 {
		return
	}
	if n := s.pairSlots(); len(g.pairFirst) < n {
		g.pairFirst = make([]VMID, n)
		g.pairFirstOK = make([]bool, n)
	}
	for _, f := range flows {
		p := s.flowPair(f)
		if math.IsNaN(p.limit) {
			continue
		}
		if g.pairFirstOK[p.idx] {
			g.union(f.src, g.pairFirst[p.idx])
		} else {
			g.pairFirst[p.idx] = f.src
			g.pairFirstOK[p.idx] = true
			g.pairTouched = append(g.pairTouched, p.idx)
		}
	}
	for _, k := range g.pairTouched {
		g.pairFirstOK[k] = false
	}
	g.pairTouched = g.pairTouched[:0]
}

// dirtyVM records that an event moved a value of the group of VM v,
// which carries flows: the group is refilled next time.
func (s *Sim) dirtyVM(v VMID) {
	s.allocDirty = true
	s.groups.mark(s.groups.vmGroup[v])
}

// restructureVM records that an event changed the structure of v's
// group and left it connected: a new version, and a refill.
func (s *Sim) restructureVM(v VMID) {
	s.allocDirty = true
	s.groups.touch(s.groups.vmGroup[v])
}

// splitVM records that an event may have split v's group: it is
// re-derived, then refilled.
func (s *Sim) splitVM(v VMID) {
	s.allocDirty = true
	k := s.groups.vmGroup[v]
	s.groups.groups[k].split = true
	s.groups.mark(k)
}

// dirtyPair records an event scoped to one DC pair's values (a
// per-connection cap override): every group with a flow on the pair is
// refilled.
func (s *Sim) dirtyPair(p *pair) {
	for _, f := range p.flows {
		s.dirtyVM(f.src)
	}
}

// invalidate marks the whole rate allocation stale.
func (s *Sim) invalidate() {
	s.allocDirty = true
	s.groups.dirtyAll = true
}

// AllocGroups reports the shape of the most recent allocation: how
// many independent bottleneck groups the live flow set decomposed
// into, and how many of them were actually refilled (the rest kept
// their rates under scoped invalidation).
func (s *Sim) AllocGroups() (groups, refilled int) {
	return s.lastGroups, s.lastRefilled
}
