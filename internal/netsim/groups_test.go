package netsim

import (
	"math"
	"slices"
	"testing"
)

// regroupReference partitions the live flow set into bottleneck groups
// from scratch, the way the allocator did before groups persisted: a
// union-find over every live flow's endpoints and the limited pairs'
// links, the lower VM id winning each union, then groups by first
// appearance in id order, id order kept within each. root[v] is the
// group root of every VM that carries flows.
func regroupReference(s *Sim) (groups [][]*Flow, root map[VMID]VMID) {
	parent := make(map[VMID]VMID)
	var find func(VMID) VMID
	find = func(v VMID) VMID {
		p, ok := parent[v]
		if !ok {
			parent[v] = v
			return v
		}
		if p != v {
			parent[v] = find(p)
		}
		return parent[v]
	}
	union := func(a, b VMID) {
		ra, rb := find(a), find(b)
		if ra < rb {
			parent[rb] = ra
		} else if rb < ra {
			parent[ra] = rb
		}
	}
	for _, f := range s.flows {
		union(f.src, f.dst)
	}
	pairFirst := make(map[int]VMID)
	for _, f := range s.flows {
		if math.IsNaN(s.pairLimitAt(int(f.srcDC), int(f.dstDC))) {
			continue
		}
		k := s.pairKey(int(f.srcDC), int(f.dstDC))
		if v, ok := pairFirst[k]; ok {
			union(f.src, v)
		} else {
			pairFirst[k] = f.src
		}
	}
	ord := make(map[VMID]int)
	root = make(map[VMID]VMID)
	for _, f := range s.flows {
		r := find(f.src)
		o, ok := ord[r]
		if !ok {
			o = len(groups)
			ord[r] = o
			groups = append(groups, nil)
		}
		groups[o] = append(groups[o], f)
		root[f.src], root[f.dst] = r, r
	}
	return groups, root
}

// refillReference is the refill rule the allocator had before groups
// persisted, kept as the oracle for the dirty list: an event records
// the group its VM belonged to at the last allocation, and the next
// allocation refills every group that holds a VM of a recorded group,
// or a VM that carried no flow then — all groups after a Sim-wide
// event.
type refillReference struct {
	root       map[VMID]VMID // group roots at the last allocation
	dirtyRoots map[VMID]bool
	dirtyAll   bool
}

// dirty records an event at VM v.
func (r *refillReference) dirty(v VMID) {
	if root, ok := r.root[v]; ok {
		r.dirtyRoots[root] = true
	}
}

// allocate applies the rule to the live flow set: it returns the group
// count and how many of them the allocation refills.
func (r *refillReference) allocate(s *Sim) (groups, refilled int) {
	partition, root := regroupReference(s)
	for _, flows := range partition {
		need := r.dirtyAll
		for _, f := range flows {
			for _, v := range [2]VMID{f.src, f.dst} {
				if old, ok := r.root[v]; !ok || r.dirtyRoots[old] {
					need = true
				}
			}
		}
		if need {
			refilled++
		}
	}
	r.root, r.dirtyRoots, r.dirtyAll = root, make(map[VMID]bool), false
	return len(partition), refilled
}

// requireGroupsMatchReference requires the maintained groups to be
// the from-scratch partition — each group's flows in id order — with
// every VM that carries flows pointing at its own group, the live
// count right and nothing left on the dirty list.
func requireGroupsMatchReference(t *testing.T, s *Sim, when string) {
	t.Helper()
	g := &s.groups
	want, _ := regroupReference(s)
	var got [][]*Flow
	for k, gr := range g.groups {
		if gr.dirty || gr.split {
			t.Fatalf("%s: group %d still dirty=%v split=%v after an allocation", when, k, gr.dirty, gr.split)
		}
		if !gr.live {
			continue
		}
		for _, f := range gr.flows {
			if g.vmGroup[f.src] != int32(k) || g.vmGroup[f.dst] != int32(k) {
				t.Fatalf("%s: flow #%d in group %d, its VMs point at %d and %d", when, f.id, k, g.vmGroup[f.src], g.vmGroup[f.dst])
			}
		}
		got = append(got, gr.flows)
	}
	slices.SortFunc(got, func(a, b []*Flow) int { return int(a[0].id - b[0].id) })
	ids := func(p [][]*Flow) (out [][]FlowID) {
		for _, flows := range p {
			var l []FlowID
			for _, f := range flows {
				l = append(l, f.id)
			}
			out = append(out, l)
		}
		return out
	}
	if a, b := ids(got), ids(want); !slices.EqualFunc(a, b, slices.Equal) {
		t.Fatalf("%s: groups %v, from-scratch partition %v", when, a, b)
	}
	if g.live != len(want) || len(g.dirty) != 0 || g.dirtyAll {
		t.Fatalf("%s: %d live groups for %d, %d still listed, dirtyAll=%v", when, g.live, len(want), len(g.dirty), g.dirtyAll)
	}
}

// TestMergeCarriesPendingSplit: a finish that disconnects a group and
// a start that merges the group into a larger one, in one window
// between allocations. The survivor takes the pending re-derivation
// along, and the finished flow's far side ends up a group of its own.
func TestMergeCarriesPendingSplit(t *testing.T) {
	s := frozenSim(7, 1)
	chain := []*Flow{s.startProbe(0, 1, 1), s.startProbe(1, 2, 1), s.startProbe(2, 3, 1)}
	for _, e := range [][2]VMID{{4, 5}, {5, 6}, {6, 4}, {4, 6}} {
		s.startProbe(e[0], e[1], 1)
	}
	requireMatchesReference(t, s, "start")
	chain[1].Stop()       // {0->1} and {2->3} no longer meet
	s.startProbe(0, 4, 1) // the chain's group (2 flows) joins the larger one (4)
	requireMatchesReference(t, s, "merged")
	if groups, refilled := s.AllocGroups(); groups != 2 || refilled != 2 {
		t.Fatalf("groups=%d refilled=%d, want 2/2", groups, refilled)
	}
}
