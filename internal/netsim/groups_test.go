package netsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
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

// TestGroupsMatchReferenceEveryEvent runs a seeded random script of
// every event the simulator has — starts, Stop, natural finishes,
// SetConns, pair limits set and cleared, KillVM, ResetPair,
// PartitionDC, SetCPULoad, per-connection caps, ramp boundaries and
// fluctuation ticks — on a multi-VM fleet. After every event it
// requires the maintained groups to be the from-scratch partition,
// rates, cap slack and retransmission attributions to be
// allocateReference's bit for bit, and the allocation to have refilled
// as many groups as the old rule would have. A group whose structure
// changed without a new version fills from stale tables here, and the
// script requires the table cache to be hit often enough for that to
// show.
func TestGroupsMatchReferenceEveryEvent(t *testing.T) {
	for _, dcs := range []int{5, 10} {
		for _, vmsPerDC := range []int{2, 3} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("dcs%d/vms%d/seed%d", dcs, vmsPerDC, seed), func(t *testing.T) {
					groupsChurn(t, dcs, vmsPerDC, seed)
				})
			}
		}
	}
}

func groupsChurn(t *testing.T, dcs, vmsPerDC int, seed uint64) {
	cfg := FleetCluster(dcs, vmsPerDC, substrate.T2Medium, 2025+seed)
	cfg.Frozen = false
	s := NewSim(cfg)
	rng := simrand.Derive(seed, "groups-test")
	ref := &refillReference{root: map[VMID]VMID{}, dirtyRoots: map[VMID]bool{}}
	randVM := func() VMID { return VMID(rng.IntN(s.NumVMs())) }
	randPair := func() (int, int) {
		src := rng.IntN(dcs)
		return src, (src + rng.IntN(dcs-1) + 1) % dcs
	}
	dirtyFlow := func(f *Flow) { ref.dirty(f.src); ref.dirty(f.dst) }
	dirtyPair := func(src, dst int) {
		if p := s.lookupPair(src, dst); p != nil {
			for _, f := range p.flows {
				ref.dirty(f.src)
			}
		}
	}

	// step is stepOnce taken apart, so that the script sees which ramp
	// boundaries took the refill and which timers invalidated everything.
	step := func(limit float64) {
		next := limit
		for _, f := range s.flows {
			if !f.Probe() && f.rate > 0 {
				next = math.Min(next, s.now+f.remainingBits/(f.rate*1e6))
			}
		}
		if at, _, ok := s.nextEvent(); ok && at < next {
			next = at
		}
		s.advanceTo(math.Max(next, s.now))
		for {
			at, ramp, ok := s.nextEvent()
			if !ok || at > s.now+1e-9 {
				return
			}
			if !ramp {
				s.timers.pop().x(s.now)
				ref.dirtyAll = ref.dirtyAll || s.groups.dirtyAll
				continue
			}
			f, fast := s.ramps.pop().x, s.rampFast
			s.rampStep(f)
			if !f.done && s.rampFast == fast {
				dirtyFlow(f)
			}
		}
	}

	s.ensureAllocated()
	var live []*Flow
	kills := 0
	// apply runs one random event and names it; a step only opens a
	// burst, since stepOnce allocates first.
	apply := func(first bool) string {
		switch r := rng.IntN(26); {
		case r <= 3 || len(live) < 4:
			// A random pair of VMs, or one a live flow's twin or its
			// reverse would use, or another pair of VMs on a live flow's
			// DC pair: what links, and unlinks, through a pair limit.
			src, dst := randVM(), randVM()
			if len(live) > 0 {
				f := live[rng.IntN(len(live))]
				switch rng.IntN(3) {
				case 0:
					src, dst = f.src, f.dst
				case 1:
					src, dst = f.dst, f.src
				}
				if rng.IntN(3) == 0 {
					src = s.vmsOfDC[f.srcDC][rng.IntN(vmsPerDC)]
					dst = s.vmsOfDC[f.dstDC][rng.IntN(vmsPerDC)]
				}
			}
			if src == dst || !s.VMAlive(src) || !s.VMAlive(dst) {
				return "nothing"
			}
			var f *Flow
			if rng.IntN(2) == 0 {
				f = s.startProbe(src, dst, rng.IntN(5)+1)
			} else {
				f = s.startFlow(src, dst, rng.IntN(5)+1, float64(rng.IntN(30)+1)*1e6, nil)
			}
			live = append(live, f)
			dirtyFlow(f)
			return "start"
		case r <= 5:
			live[rng.IntN(len(live))].Stop() // dirtied below, as every finished flow
			return "stop"
		case r == 6:
			f, n := live[rng.IntN(len(live))], rng.IntN(5)+1
			if !f.done && n != int(f.conns) {
				dirtyFlow(f)
			}
			f.SetConns(n)
			return "setconns"
		case r <= 8:
			f := live[rng.IntN(len(live))]
			dirtyPair(int(f.srcDC), int(f.dstDC))
			s.SetPairLimit(int(f.srcDC), int(f.dstDC), float64(rng.IntN(300)+10))
			return "pairlimit"
		case r == 9:
			src, dst := randPair()
			if rng.IntN(2) == 0 {
				f := live[rng.IntN(len(live))]
				src, dst = int(f.srcDC), int(f.dstDC)
			}
			if !math.IsNaN(s.pairLimitAt(src, dst)) {
				dirtyPair(src, dst)
			}
			s.ClearPairLimit(src, dst)
			return "clearlimit"
		case r <= 11:
			v, load := randVM(), rng.Float64()
			if s.vmConns[v] > 0 && s.vms[v].cpuLoad != load {
				ref.dirty(v)
			}
			s.SetCPULoad(v, load)
			return "cpu"
		case r == 12:
			src, dst := randPair()
			dirtyPair(src, dst)
			s.SetPerConnCap(src, dst, s.PerConnCapMbps(src, dst)*(0.5+rng.Float64()))
			return "perconncap"
		case r == 13:
			f := live[rng.IntN(len(live))]
			s.ResetPair(int(f.srcDC), int(f.dstDC), s.now)
			return "resetpair"
		case r == 14 && kills < 2:
			kills++
			s.KillVM(live[rng.IntN(len(live))].src, s.now+0.05*float64(rng.IntN(2)))
			return "kill"
		case r == 15:
			dc := rng.IntN(dcs)
			if s.partActive[dc] == 0 && s.interDCFlow > 0 {
				ref.dirtyAll = true
			}
			s.PartitionDC(dc, s.now, s.now+0.05+0.2*rng.Float64())
			return "partition"
		case first:
			step(s.now + 0.03)
			return "step"
		}
		return "nothing"
	}

	fills := 0
	for ev := 0; ev < 600; ev++ {
		if s.allocDirty {
			t.Fatalf("event %d: allocation left dirty", ev)
		}
		// One event, or a burst of them between two allocations: a finish
		// and a start in one window merge a group still to be re-derived.
		op := apply(true)
		for n := rng.IntN(4); n > 1 && op != "step"; n-- {
			op += "+" + apply(false)
		}
		kept := live[:0]
		for _, f := range live {
			if f.done {
				dirtyFlow(f)
			} else {
				kept = append(kept, f)
			}
		}
		live = kept

		when := fmt.Sprintf("event %d (%s) at t=%.6f", ev, op, s.now)
		allocates := s.allocDirty
		requireMatchesReference(t, s, when)
		if !allocates {
			continue
		}
		fills++
		wantGroups, wantRefilled := ref.allocate(s)
		if groups, refilled := s.AllocGroups(); groups != wantGroups || refilled != wantRefilled {
			t.Fatalf("%s: %d groups, %d refilled; the old rule has %d, %d", when, groups, refilled, wantGroups, wantRefilled)
		}
	}
	t.Logf("%d allocations, %d fills reused their tables, %d groups at most", fills, s.scratch.reused, len(s.groups.groups))
	if s.scratch.reused < fills/20 {
		t.Fatalf("%d fills reused their tables over %d allocations: the versions are barely exercised", s.scratch.reused, fills)
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

// TestIdleVMRetransmissions: on a fleet where most VMs carry no flow,
// or carried some and lost them all, VMStats reads every VM's
// retransmission rate as the from-scratch oracle has it, bit for bit:
// 0 exactly on every VM without flows.
func TestIdleVMRetransmissions(t *testing.T) {
	s := NewSim(FleetCluster(12, 4, substrate.T2Medium, 3))
	var flows []*Flow
	for k := 0; k < 30; k++ { // VMs 0–5 overloaded, 40–47 idle
		flows = append(flows, s.startProbe(VMID(k%3), VMID(3+k%3), 8))
	}
	for _, e := range [][2]VMID{{8, 20}, {9, 21}, {40, 41}, {42, 43}} {
		flows = append(flows, s.startFlow(e[0], e[1], 4, 5e6, nil))
	}
	s.RunFor(0.5) // the sized flows drain; their VMs go idle again
	for _, f := range flows[len(flows)-4:] {
		if !f.Done() {
			t.Fatalf("flow #%d still running", f.id)
		}
	}
	_, want := s.allocateReference()
	busy := 0
	for v := range s.vms {
		got := s.VMStats(VMID(v)).RetransPerSec
		if math.Float64bits(got) != math.Float64bits(want[v]) {
			t.Fatalf("vm %d: retrans %v, oracle %v", v, got, want[v])
		}
		if s.vmConns[v] > 0 {
			busy++
		} else if math.Float64bits(got) != 0 {
			t.Fatalf("idle vm %d: retrans %v, want +0", v, got)
		}
	}
	if busy != 6 || want[0] <= 0 {
		t.Fatalf("%d VMs carry flows (want 6), vm 0 retrans %v (want > 0)", busy, want[0])
	}
}
