package netsim

import (
	"cmp"
	"math"
	"slices"
)

// The rate allocator distributes WAN capacity among active flows by
// weighted progressive filling (water-filling). It captures how TCP
// shares a bottleneck in practice rather than ideal max-min fairness:
//
//   - A flow's weight is conns/RTT^RTTBiasExp: more parallel
//     connections claim proportionally more, and short-RTT connections
//     out-compete long-RTT ones (the bias WANify's heterogeneous
//     connections exist to counteract).
//   - A flow can never exceed conns × perConnCap(src,dst) — the window
//     and path-quality limit of each connection — scaled by the link's
//     fluctuation factor, the receiver's memory pressure, and the
//     sender's CPU load.
//   - Per-VM egress/ingress capacities (degraded past the congestion
//     knee) and per-DC-pair `tc` limits are shared resources.
//
// Water-filling raises every unfrozen flow's rate in proportion to its
// weight until some resource saturates; flows crossing a saturated
// resource freeze; repeat until all flows freeze.
//
// # Sharded incremental architecture
//
// The allocator is the simulator's hot path: the evaluation drivers
// invalidate it on every flow start/finish, connection resize, ramp
// step and fluctuation tick, often with hundreds of concurrent shuffle
// flows in play. Five layers keep a recomputation amortized-cheap
// while producing bit-identical rates to the from-scratch oracle
// (allocateReference, test-only, in allocref_test.go):
//
//  1. Incremental indexes. Per-VM terminating-connection counts
//     (Sim.vmConns) and per-DC-pair flow lists (pair.flows) are
//     maintained as flows start/finish/resize, so congestion factors
//     and memory utilization — previously an O(flows) rescan per flow,
//     making each allocation O(flows²) — are O(1) lookups.
//  2. Bottleneck groups (churn.go). The live flows partition into
//     connected components over shared resources; each group is
//     water-filled independently. Filling is a pure function of
//     group-local state, so the order groups are filled in cannot
//     change a result, and scoped invalidation refills only the groups
//     an event touched — clean groups keep their rates and
//     retransmission attributions verbatim.
//  3. Slab reuse, and tables that survive value-only events. The Sim
//     owns one fillScratch: resource tables, membership lists,
//     weights, rates and freeze bitmaps are recycled across
//     invocations, so a steady-state allocation performs no heap
//     allocation at all. Resources exist only for the VMs and pairs a
//     group actually uses — idle VMs and pairs cost nothing, which is
//     what keeps a 500-DC topology with sparse traffic from paying for
//     250k pair slots per allocation. Beyond the storage, what a group
//     *is* outlives what it currently *gets*: Sim.structEpoch moves on
//     addFlow, finishFlow (so also failFlow, killVM and Stop),
//     SetConns, SetPairLimit and ClearPairLimit, and while it stands
//     still allocate keeps the grouping (flowOrd, roots, offsets,
//     bucketed, the vmRoot stamps) and only re-decides which groups
//     are dirty, and a scratch whose tables were built
//     for the same (epoch, group ordinal) keeps its VM table, shared
//     resources and their capacities, weights, wiring and member
//     lists. Everything else that dirties an allocation is value-only
//     — CPU load, a fluctuation tick, a ramp level, SetPerConnCap, a
//     partition beginning or healing — and can move only memF, the
//     flows' own caps and the filling state (avail, sumW, dirty),
//     which every fill recomputes. There is no second path: the key is
//     checked on every fill, and a scratch that last served another
//     group simply rebuilds.
//  4. The filling round. Shared resources — VM egress/ingress and
//     pair limits — keep a cached unfrozen-weight sum, recomputed only
//     after one of their member flows froze in the previous round (the
//     recompute rescans that resource's members in original order,
//     which keeps the floating-point summation identical to a
//     from-scratch pass), and leave the live list when their last
//     member freezes. A flow's own cap is not among them: the oracle
//     models it as a single-member resource, but nothing shares it, so
//     it is two numbers beside the flow's weight (capAvail, capMin)
//     and a round is the shared scan followed by one pass over the
//     unfrozen flows, kept in a compacted order-preserving list. The
//     pass raises a flow's rate, charges the increment to its two or
//     three shared resources and to its own cap, freezes it there and
//     then if the cap is exhausted, and folds the survivors' next
//     own-cap quotients into a running minimum that seeds the next
//     round's theta; the shared saturation check follows, and the list
//     is compacted a second time only if that froze somebody. It is
//     the oracle's program: every flow and every resource sees the
//     same operations on the same operands in the same (flow-id)
//     order, an own cap's weight sum was 0.0 + w, theta is a minimum
//     over the same set of quotients and the frozen set a union over
//     the same saturated resources — both order-free.
//  5. Slack ramp steps (rampStep). A slow-start level boundary raises
//     one flow's own cap and nothing else. When the last fill left that
//     cap unsaturated and the raised cap still clears the flow's rate,
//     a refill would repeat every operation on the same operands, so
//     the step skips the fill and only re-attributes retransmissions
//     at the flow's two VMs — O(flows at two VMs) instead of a fill.
//
// Determinism: within a group, every floating-point operation happens
// in the same order as the from-scratch reference, with flows visited
// in start (id) order; across groups no state is shared, so group
// order cannot perturb a result. Each group writes rates for its own
// flows and retransmission attributions for its own VMs, and the
// partition guarantees those sets are disjoint.

// allocEps is the relative tolerance deciding when a resource counts
// as saturated in the progressive-filling loop.
const allocEps = 1e-9

// fillScratch is the Sim's reusable filling state (layer 3 of the
// architecture above). Shared resources are stored struct-of-arrays;
// nRes tracks the live prefix so slabs shrink without freeing.
type fillScratch struct {
	// The (Sim.structEpoch, group ordinal) the tables were built for.
	// While the next fill carries the same key, everything below marked
	// "table" is still right and only the values are recomputed; reused
	// counts the fills that found it so.
	builtEpoch uint64
	builtOrd   int32
	reused     int

	// Group VM table: local ordinal per VM (epoch-stamped) and member
	// VMs in first-appearance order (table); their receiver memory
	// factors (value).
	vmLocal []int32
	vmEpoch []uint32
	epoch   uint32
	vms     []VMID
	memF    []float64

	// Shared-resource slabs, parallel arrays of length >= nRes. VM
	// resources occupy indices 2l (egress) and 2l+1 (ingress) for local
	// VM l; pair limits follow in first-use order. resVM, resCap,
	// availMin and members are table; avail, sumW, dirty and liveRes
	// are reset by every fill.
	nRes     int
	resVM    []VMID
	resCap   []float64
	avail    []float64
	availMin []float64 // saturation threshold eps*max(1, cap), precomputed
	members  [][]int   // flow indices using each resource, in id order
	sumW     []float64 // cached unfrozen weight sum per resource
	dirty    []bool    // sumW must be rescanned (a member froze)
	liveRes  []int     // resources that still have unfrozen members

	// pairRes maps pair ordinal -> pair-limit resource index while the
	// tables are being built (-1 when not materialized); touched lists
	// the ordinals to reset afterwards. Sized to the pair store lazily,
	// only when limits exist.
	pairRes []int32
	touched []int32

	// Per-flow slabs. weights and shared are table; the rest is reset
	// by every fill. A flow's own cap is not a resource: nothing shares
	// it, so it lives here and the filling loop handles it in the pass
	// that raises the flow.
	weights  []float64
	shared   [][3]int32 // egress, ingress, pair limit (-1: none)
	capAvail []float64  // own cap left
	capMin   []float64  // own-cap saturation threshold eps*max(1, cap)
	rates    []float64
	frozen   []bool
	active   []int // unfrozen flow indices, compacted, in id order
}

// localVM returns the group-local ordinal of v, adding it to the group
// VM table on first sight.
func (a *fillScratch) localVM(v VMID) int32 {
	if a.vmEpoch[v] != a.epoch {
		a.vmEpoch[v] = a.epoch
		a.vmLocal[v] = int32(len(a.vms))
		a.vms = append(a.vms, v)
	}
	return a.vmLocal[v]
}

// addRes appends a shared resource to the slab, recycling member
// storage.
func (a *fillScratch) addRes(vm VMID, capMbps float64) int32 {
	i := a.nRes
	if i == len(a.resVM) {
		a.resVM = append(a.resVM, 0)
		a.resCap = append(a.resCap, 0)
		a.avail = append(a.avail, 0)
		a.availMin = append(a.availMin, 0)
		a.members = append(a.members, nil)
		a.sumW = append(a.sumW, 0)
		a.dirty = append(a.dirty, false)
	}
	a.resVM[i] = vm
	a.resCap[i] = capMbps
	a.availMin[i] = allocEps * math.Max(1, capMbps)
	a.members[i] = a.members[i][:0]
	a.nRes++
	return int32(i)
}

// growFlows sizes the per-flow slabs for nf flows.
func (a *fillScratch) growFlows(nf int) {
	if cap(a.weights) < nf {
		a.weights = make([]float64, nf)
		a.shared = make([][3]int32, nf)
		a.capAvail = make([]float64, nf)
		a.capMin = make([]float64, nf)
		a.rates = make([]float64, nf)
		a.frozen = make([]bool, nf)
	}
	a.weights = a.weights[:nf]
	a.shared = a.shared[:nf]
	a.capAvail = a.capAvail[:nf]
	a.capMin = a.capMin[:nf]
	a.rates = a.rates[:nf]
	a.frozen = a.frozen[:nf]
}

// ensureAllocated recomputes flow rates if anything changed.
func (s *Sim) ensureAllocated() {
	if !s.allocDirty {
		return
	}
	s.allocDirty = false
	s.allocate()
}

// allocate recomputes flow rates: partition the live flows into
// bottleneck groups (or keep the partition, when no structure event
// came since it was built), decide which groups an event since the
// last allocation touched, and water-fill exactly those.
func (s *Sim) allocate() {
	order := s.flows // start (id) order
	g := &s.groups
	if len(order) == 0 {
		for _, v := range s.vms {
			v.lastRetrans = 0
		}
		g.dirtyRoots = g.dirtyRoots[:0]
		g.dirtyAll = false
		g.rootEpoch++ // no VM stays stamped: everything is ungrouped
		s.lastGroups, s.lastRefilled = 0, 0
		return
	}
	regrouped := g.builtEpoch != s.structEpoch
	if regrouped {
		g.regroup(s, order)
		g.builtEpoch = s.structEpoch
	}
	ng := len(g.roots)

	// Decide which groups to refill: those touched by a recorded event
	// (via their last-allocation root) or containing a VM that was not
	// grouped last time (its flows are new). Under a kept grouping every
	// VM is stamped with its current root, so this is the recorded dirt
	// and nothing else.
	if cap(g.needFill) < ng {
		g.needFill = make([]bool, ng)
	}
	g.needFill = g.needFill[:ng]
	for i := range g.needFill {
		g.needFill[i] = g.dirtyAll
	}
	if !g.dirtyAll {
		for _, r := range g.dirtyRoots {
			g.rootDirty[r] = true
		}
		for fi, f := range order {
			ord := g.flowOrd[fi]
			if g.needFill[ord] {
				continue
			}
			if g.vmDirty(f.src) || g.vmDirty(f.dst) {
				g.needFill[ord] = true
			}
		}
		for _, r := range g.dirtyRoots {
			g.rootDirty[r] = false
		}
	}
	g.dirtyRoots = g.dirtyRoots[:0]
	g.dirtyAll = false

	// Fill the dirty groups. Each group writes only its own flows'
	// rates and its own VMs' retransmission attributions.
	refilled := 0
	for ord := int32(0); ord < int32(ng); ord++ {
		if g.needFill[ord] {
			s.scratch.fillGroup(s, ord, g.bucketed[g.offsets[ord]:g.offsets[ord+1]])
			refilled++
		}
	}

	// Stamp a new grouping for the next round of scoped dirt; a kept
	// one carries its stamps already.
	if regrouped {
		g.rootEpoch++
		for _, f := range order {
			for _, v := range [2]VMID{f.src, f.dst} {
				if g.vmRootEpoch[v] != g.rootEpoch {
					g.vmRootEpoch[v] = g.rootEpoch
					g.vmRoot[v] = g.find(v)
				}
			}
		}
	}
	s.lastGroups, s.lastRefilled = ng, refilled
}

// regroup partitions the live flow set into bottleneck groups: group
// ordinals by first appearance in id order (flowOrd, roots), and the
// flows bucketed by ordinal, id order kept within each (offsets,
// bucketed).
func (g *groupIndex) regroup(s *Sim, order []*Flow) {
	nf := len(order)
	g.beginEpoch(len(s.vms))
	for _, f := range order {
		g.union(f.src, f.dst)
	}
	g.linkLimitedPairs(s, order)

	if cap(g.flowOrd) < nf {
		g.flowOrd = make([]int32, nf)
	}
	g.flowOrd = g.flowOrd[:nf]
	g.roots = g.roots[:0]
	g.counts = g.counts[:0]
	for fi, f := range order {
		r := g.find(f.src)
		var ord int32
		if g.ordEpoch[r] != g.epoch {
			g.ordEpoch[r] = g.epoch
			ord = int32(len(g.roots))
			g.ordOf[r] = ord
			g.roots = append(g.roots, r)
			g.counts = append(g.counts, 0)
		} else {
			ord = g.ordOf[r]
		}
		g.flowOrd[fi] = ord
		g.counts[ord]++
	}
	ng := len(g.roots)

	if cap(g.offsets) < ng+1 {
		g.offsets = make([]int32, ng+1)
		g.cursor = make([]int32, ng+1)
	}
	g.offsets = g.offsets[:ng+1]
	g.cursor = g.cursor[:ng]
	off := int32(0)
	for ord := 0; ord < ng; ord++ {
		g.offsets[ord] = off
		g.cursor[ord] = off
		off += g.counts[ord]
	}
	g.offsets[ng] = off
	if cap(g.bucketed) < nf {
		g.bucketed = make([]*Flow, nf)
	}
	g.bucketed = g.bucketed[:nf]
	for fi, f := range order {
		ord := g.flowOrd[fi]
		g.bucketed[g.cursor[ord]] = f
		g.cursor[ord]++
	}
}

// vmDirty reports whether v's group must be refilled: v was not part
// of the last allocation's grouping, or its then-group was dirtied.
func (g *groupIndex) vmDirty(v VMID) bool {
	if g.vmRootEpoch[v] != g.rootEpoch {
		return true
	}
	return g.rootDirty[g.vmRoot[v]]
}

// buildTables derives everything about a group that only a structure
// event can change: its VM table, its shared resources with their
// capacities (a congestion factor moves with connection counts, a pair
// limit with SetPairLimit), each flow's weight and the resources it
// crosses, and the member lists.
func (a *fillScratch) buildTables(s *Sim, flows []*Flow) {
	if len(a.vmEpoch) < len(s.vms) {
		// Sized once per Sim: the VM set never changes.
		a.vmEpoch = make([]uint32, len(s.vms))
		a.vmLocal = make([]int32, len(s.vms))
	}
	a.epoch++
	a.vms = a.vms[:0]

	// Group VM table in first-appearance order. Values (congestion
	// factor, memory factor) depend only on the VM's own state, so the
	// table order is free — only per-resource arithmetic must match
	// the reference, and it does, member lists being in flow order.
	for _, f := range flows {
		a.localVM(f.src)
		a.localVM(f.dst)
	}
	a.nRes = 0
	for _, v := range a.vms {
		cong := s.congFactor(v)
		spec := &s.vms[v].spec
		a.addRes(v, spec.EgressMbps*cong)
		a.addRes(v, spec.IngressMbps*cong)
	}

	// Weights and lazily materialized pair limits, in flow order.
	a.growFlows(len(flows))
	for fi, f := range flows {
		p := s.flowPair(f)
		a.weights[fi] = float64(f.conns) / p.biasPow
		sh := [3]int32{2 * a.vmLocal[f.src], 2*a.vmLocal[f.dst] + 1, -1}
		if !math.IsNaN(p.limit) {
			if n := s.pairSlots(); len(a.pairRes) < n {
				a.pairRes = make([]int32, n)
				for i := range a.pairRes {
					a.pairRes[i] = -1
				}
			}
			if a.pairRes[p.idx] < 0 {
				a.pairRes[p.idx] = a.addRes(0, p.limit)
				a.touched = append(a.touched, p.idx)
			}
			sh[2] = a.pairRes[p.idx]
		}
		a.shared[fi] = sh
	}
	for _, k := range a.touched {
		a.pairRes[k] = -1
	}
	a.touched = a.touched[:0]
	for fi := range flows {
		for _, ri := range a.shared[fi] {
			if ri >= 0 {
				a.members[ri] = append(a.members[ri], fi)
			}
		}
	}
}

// fillGroup water-fills one bottleneck group: flows is the members of
// group ord in start (id) order. It writes each flow's cap, rate and
// cap slack and the retransmission attribution of every VM the group
// touches, and no other simulator state.
func (a *fillScratch) fillGroup(s *Sim, ord int32, flows []*Flow) {
	if a.builtEpoch == s.structEpoch && a.builtOrd == ord {
		a.reused++
	} else {
		a.buildTables(s, flows)
		a.builtEpoch, a.builtOrd = s.structEpoch, ord
	}

	// What a value-only event can move: memory factors (CPU load), the
	// flows' own caps, and the filling state itself.
	if cap(a.memF) < len(a.vms) {
		a.memF = make([]float64, len(a.vms))
	}
	a.memF = a.memF[:len(a.vms)]
	for l, v := range a.vms {
		a.memF[l] = memFactor(s.memUtil(v))
	}
	a.liveRes = a.liveRes[:0]
	for ri := 0; ri < a.nRes; ri++ {
		a.avail[ri] = a.resCap[ri]
		a.sumW[ri] = 0
		a.dirty[ri] = true
		a.liveRes = append(a.liveRes, ri)
	}
	// capQ is the smallest own-cap quotient capAvail/weight among the
	// active flows: what the own caps contribute to the next theta.
	capQ := math.Inf(1)
	a.active = a.active[:0]
	for fi, f := range flows {
		// shared[fi][1] is the ingress resource 2l+1 of f.dst's ordinal l.
		f.capMbps = s.flowCap(f, a.memF[a.shared[fi][1]>>1])
		a.capAvail[fi] = f.capMbps
		a.capMin[fi] = allocEps * math.Max(1, f.capMbps)
		a.rates[fi] = 0
		a.frozen[fi] = false
		a.active = append(a.active, fi)
		if q := f.capMbps / a.weights[fi]; q < capQ {
			capQ = q
		}
	}

	// Progressive filling.
	for len(a.active) > 0 {
		// Weight sums per shared resource over unfrozen members: cached,
		// and rescanned (in member order, for bit-stable summation) only
		// for resources that lost a member last round. Resources whose
		// members all froze leave the live list: a weight is strictly
		// positive, so sumW == 0 exactly when no unfrozen member is
		// left, and such a resource can never constrain theta or
		// freeze anything again.
		theta := capQ
		live := a.liveRes[:0]
		for _, ri := range a.liveRes {
			if a.dirty[ri] {
				sum := 0.0
				for _, fi := range a.members[ri] {
					if !a.frozen[fi] {
						sum += a.weights[fi]
					}
				}
				a.sumW[ri] = sum
				a.dirty[ri] = false
			}
			if a.sumW[ri] > 0 {
				live = append(live, ri)
				if t := a.avail[ri] / a.sumW[ri]; t < theta {
					theta = t
				}
			}
		}
		a.liveRes = live
		if math.IsInf(theta, 1) {
			break
		}
		if theta < 0 {
			theta = 0
		}
		// Raise the water level for the (compacted) unfrozen flows. A
		// flow whose own cap the increment exhausts freezes on the spot
		// and leaves the list; the survivors' own-cap quotients fold
		// into the next round's capQ.
		capQ = math.Inf(1)
		frozeAny := false
		unfrozen := a.active[:0]
		for _, fi := range a.active {
			inc := theta * a.weights[fi]
			a.rates[fi] += inc
			sh := &a.shared[fi]
			a.avail[sh[0]] -= inc
			a.avail[sh[1]] -= inc
			if sh[2] >= 0 {
				a.avail[sh[2]] -= inc
			}
			left := a.capAvail[fi] - inc
			a.capAvail[fi] = left
			if left > a.capMin[fi] {
				unfrozen = append(unfrozen, fi)
				if q := left / a.weights[fi]; q < capQ {
					capQ = q
				}
				continue
			}
			a.freeze(fi)
			frozeAny = true
		}
		a.active = unfrozen
		// Freeze flows on exhausted shared resources.
		sharedFroze := false
		for _, ri := range a.liveRes {
			if a.avail[ri] > a.availMin[ri] {
				continue
			}
			for _, fi := range a.members[ri] {
				if !a.frozen[fi] {
					a.freeze(fi)
					sharedFroze = true
				}
			}
		}
		if sharedFroze {
			capQ = math.Inf(1)
			unfrozen = a.active[:0]
			for _, fi := range a.active {
				if !a.frozen[fi] {
					unfrozen = append(unfrozen, fi)
					if q := a.capAvail[fi] / a.weights[fi]; q < capQ {
						capQ = q
					}
				}
			}
			a.active = unfrozen
		} else if !frozeAny {
			// Numerical stall: freeze everything to guarantee progress.
			break
		}
	}
	for fi, f := range flows {
		f.rate = a.rates[fi]
		f.capSlack = a.capAvail[fi] > a.capMin[fi]
	}

	// Retransmission rates: attribute overload pressure at each VM
	// resource to that VM, proportional to how much demand (per-flow
	// caps) exceeds effective capacity.
	for _, v := range a.vms {
		s.vms[v].lastRetrans = 0
	}
	for ri := 0; ri < 2*len(a.vms); ri++ {
		demand := 0.0
		conns := 0
		for _, fi := range a.members[ri] {
			demand += flows[fi].capMbps
			conns += flows[fi].conns
		}
		s.vms[a.resVM[ri]].lastRetrans += retransTerm(demand, a.resCap[ri], conns)
	}
}

// freeze takes flow fi out of the filling: the sums of the shared
// resources it crosses must be rescanned.
func (a *fillScratch) freeze(fi int) {
	a.frozen[fi] = true
	sh := &a.shared[fi]
	a.dirty[sh[0]] = true
	a.dirty[sh[1]] = true
	if sh[2] >= 0 {
		a.dirty[sh[2]] = true
	}
}

// retransTerm is the retransmission rate one VM resource contributes:
// zero unless the demand placed on it exceeds its effective capacity.
func retransTerm(demand, resCap float64, conns int) float64 {
	if resCap <= 0 {
		return 0
	}
	if pressure := demand/resCap - 1; pressure > 0 {
		return 2.0 * pressure * float64(conns)
	}
	return 0
}

// congFactor degrades a VM's egress/ingress capacity once the
// connections terminating at it pass the congestion knee.
func (s *Sim) congFactor(v VMID) float64 {
	over := float64(s.vmConns[v] - s.cfg.CongestionKnee)
	if over < 0 {
		over = 0
	}
	return 1 / (1 + congestionSlope*over)
}

// flowCap is the flow's own ceiling: conns × the pair's per-connection
// cap, scaled by link fluctuation, the receiver's memory factor memF,
// the sender's CPU load and the slow-start ramp.
func (s *Sim) flowCap(f *Flow, memF float64) float64 {
	if s.severed(f.srcDC, f.dstDC) {
		return 0 // active DC partition: the pair delivers nothing
	}
	p := s.flowPair(f)
	fluct := 1.0
	if p.fluct != nil {
		fluct = p.fluct.factor()
	}
	cpuF := cpuFactor(s.vms[f.src].cpuLoad)
	return float64(f.conns) * p.connBase * fluct * memF * cpuF * s.rampFactor(f)
}

// rampStep is a slow-start level boundary of f (layer 5 above). The
// boundary raises f's own cap and nothing else, so when the last fill
// left that cap slack a refill would differ only in f's capAvail and
// capMin. Its quotient capAvail/weight sat strictly above every
// round's theta (a tie would have drained it) and float subtraction is
// monotone in the minuend, so with a larger cap it sits higher still:
// every theta, increment, freeze and sumW rescan of the refill is the
// same operation on the same operands. The margin keeps the raised cap
// unsaturated under its own, larger, capMin with room for the fill's
// rounding. What the cap does move is the
// demand at f's two VMs, so their attribution is redone; everything
// else — and any step not provably inert, including every step of a
// cap-bound or severed (cap 0) flow — takes the refill.
func (s *Sim) rampStep(f *Flow) {
	if f.done {
		return
	}
	if !s.allocDirty && f.capSlack {
		newCap := s.flowCap(f, memFactor(s.memUtil(f.dst)))
		if newCap >= f.capMbps && newCap-f.rate > 2*allocEps*math.Max(1, newCap) {
			f.capMbps = newCap
			s.rampFast++
			s.attributeRetrans(f.src)
			s.attributeRetrans(f.dst)
			return
		}
	}
	s.dirtyFlow(f)
}

// attributeRetrans recomputes v's retransmission attribution as a fill
// of its group would: egress term then ingress term, each summing the
// caps of v's flows in start order. The flows come from v's DC's row
// (egress) or column (ingress) of pair records, sorted by id across
// the per-pair lists.
func (s *Sim) attributeRetrans(v VMID) {
	vm, n := s.vms[v], len(s.regions)
	cong := s.congFactor(v)
	vm.lastRetrans = 0
	for dir, specMbps := range [2]float64{vm.spec.EgressMbps, vm.spec.IngressMbps} {
		buf := s.attrBuf[:0]
		for o := 0; o < n; o++ {
			srcDC, dstDC := vm.dc, o
			if dir == 1 {
				srcDC, dstDC = o, vm.dc
			}
			p := s.lookupPair(srcDC, dstDC)
			if p == nil {
				continue
			}
			for _, f := range p.flows {
				if [2]VMID{f.src, f.dst}[dir] == v {
					buf = append(buf, f)
				}
			}
		}
		slices.SortFunc(buf, func(x, y *Flow) int { return cmp.Compare(x.id, y.id) })
		demand, conns := 0.0, 0
		for _, f := range buf {
			demand += f.capMbps
			conns += f.conns
		}
		vm.lastRetrans += retransTerm(demand, specMbps*cong, conns)
		s.attrBuf = buf
	}
}

// memFactor degrades per-connection throughput when the receiver runs
// out of buffer headroom (the paper's observation that "each connection
// requires a memory buffer, affecting runtime BW" [17]).
func memFactor(memUtil float64) float64 {
	if memUtil <= 0.85 {
		return 1
	}
	f := 1 - (memUtil-0.85)*2.5
	return math.Max(0.4, f)
}

// cpuFactor degrades sending rate under CPU pressure (sender-limited
// TCP; feature Ci of Table 3 exists because of this coupling).
func cpuFactor(cpuLoad float64) float64 {
	return 1 - 0.25*cpuLoad*cpuLoad
}
