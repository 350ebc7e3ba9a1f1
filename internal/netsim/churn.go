package netsim

import "math"

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
// The index is maintained across churn with epoch-stamped slabs: a
// flow start unions its endpoints (and can only merge groups, which
// union-find handles incrementally), while a finish can split a group,
// so component assignment is re-derived from the live flow set at the
// next allocation after a structure event (Sim.structEpoch) — an
// O(flows α(VMs)) sweep — and kept as it stands across allocations
// that only value events (CPU load, link weather, ramp levels) caused.
// What persists between allocations besides is the dirty set: events record the group they touched (via the owning VM's root
// at the last allocation), and the next allocation refills only groups
// containing a dirtied or regrouped VM, keeping every other group's
// rates and retransmission attributions untouched.

// groupIndex is the Sim's bottleneck-group state. All slabs are epoch
// stamped so per-allocation resets cost O(touched), not O(VMs).
type groupIndex struct {
	// builtEpoch is the Sim.structEpoch the grouping below (union-find,
	// ordinals, buckets, vmRoot stamps) was built at; allocate keeps it
	// until a structure event moves the epoch on.
	builtEpoch uint64

	// Union-find over VM ids, rebuilt with the grouping.
	parent  []VMID
	ufEpoch []uint32
	epoch   uint32

	// vmRoot[v] is v's group root at the last completed allocation,
	// valid while vmRootEpoch[v] == rootEpoch. Scoped invalidation keys
	// dirt by these roots.
	vmRoot      []VMID
	vmRootEpoch []uint32
	rootEpoch   uint32

	// Dirt accumulated since the last allocation. dirtyRoots holds the
	// last-allocation roots of touched groups (duplicates are fine);
	// dirtyAll refills everything (fluctuation ticks, partitions).
	dirtyRoots []VMID
	rootDirty  []bool // scratch keyed by root VM during one allocation
	dirtyAll   bool

	// pairFirst links flows that share a rate-limited DC pair during
	// grouping: first source VM seen per pair ordinal, reset via the
	// touched list. Sized to the pair store lazily, only when limits
	// exist.
	pairFirst   []VMID
	pairFirstOK []bool
	pairTouched []int32

	// The grouping (ordOf to bucketed, see regroup) and the per-
	// allocation refill decision (needFill).
	ordOf    []int32 // per root VM: group ordinal (epoch-stamped)
	ordEpoch []uint32
	flowOrd  []int32 // per ordered-flow index: group ordinal
	roots    []VMID  // per ordinal: root VM
	counts   []int32 // per ordinal: member flows
	offsets  []int32 // per ordinal: start offset into bucketed
	cursor   []int32 // bucketing write cursors
	bucketed []*Flow // flows grouped by ordinal, id order within each
	needFill []bool  // per ordinal: group must be refilled
}

func (g *groupIndex) grow(nVMs int) {
	if len(g.parent) < nVMs {
		g.parent = make([]VMID, nVMs)
		g.ufEpoch = make([]uint32, nVMs)
		g.vmRoot = make([]VMID, nVMs)
		g.vmRootEpoch = make([]uint32, nVMs)
		g.rootDirty = make([]bool, nVMs)
		g.ordOf = make([]int32, nVMs)
		g.ordEpoch = make([]uint32, nVMs)
	}
}

// beginEpoch starts a fresh union-find pass over the live flow set.
func (g *groupIndex) beginEpoch(nVMs int) {
	g.grow(nVMs)
	g.epoch++
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
		p := g.parent[v]
		if g.ufEpoch[p] != g.epoch {
			// Cannot happen (parents are always initialized), but keep
			// the walk safe against stale slabs.
			g.ufEpoch[p] = g.epoch
			g.parent[p] = p
		}
		g.parent[v] = g.parent[p] // path halving
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
func (g *groupIndex) linkLimitedPairs(s *Sim, order []*Flow) {
	if s.numLimits == 0 {
		return
	}
	if n := s.pairSlots(); len(g.pairFirst) < n {
		g.pairFirst = make([]VMID, n)
		g.pairFirstOK = make([]bool, n)
	}
	for _, f := range order {
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

// dirtyVM records that an event touched VM v's group: the group v
// belonged to at the last allocation is refilled next time. A VM that
// was not grouped then (its flows are all new) needs no record — the
// refill decision treats unstamped VMs as dirty.
func (s *Sim) dirtyVM(v VMID) {
	s.allocDirty = true
	g := &s.groups
	if g.dirtyAll {
		return
	}
	if int(v) < len(g.vmRootEpoch) && g.vmRootEpoch[v] == g.rootEpoch {
		g.dirtyRoots = append(g.dirtyRoots, g.vmRoot[v])
	}
}

// dirtyFlow records an event scoped to one flow (ramp step, resize).
func (s *Sim) dirtyFlow(f *Flow) {
	s.dirtyVM(f.src)
	s.dirtyVM(f.dst)
}

// dirtyPair records an event scoped to one DC pair (tc limit change,
// per-connection cap override): every group with a flow on the pair is
// refilled. Connectivity may also change (a limit appearing can merge
// groups, one clearing can split), which needs no extra handling: the
// re-derived groups refill whenever they contain a dirtied VM.
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
