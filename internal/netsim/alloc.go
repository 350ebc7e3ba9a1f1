package netsim

import "math"

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
//     (Sim.vmConns), per-VM egress and ingress flow rings (vm.last)
//     and per-DC-pair flow lists (pair.flows) are maintained as flows
//     start/finish/resize, so congestion factors and memory
//     utilization — previously an O(flows) rescan per flow, making
//     each allocation O(flows²) — are O(1) lookups, and a VM's
//     retransmission attribution reads only the VM's own flows.
//  2. Bottleneck groups (churn.go). The live flows partition into
//     connected components over shared resources; each group is
//     water-filled independently. Filling is a pure function of
//     group-local state, so the order groups are filled in cannot
//     change a result, and scoped invalidation refills only the groups
//     an event touched — clean groups keep their rates and
//     retransmission attributions verbatim. The groups persist across
//     allocations, each holding its flows in id order: a start joins
//     (or merges) its endpoints' groups, a finish or a cleared limit
//     re-derives only its own group, and every dirtying event lists
//     its group, so an allocation touches no flow outside the groups
//     it refills.
//  3. Slab reuse, and tables that survive value-only events. The Sim
//     owns one fillScratch: resource tables, membership lists,
//     weights, rates and freeze bitmaps are recycled across
//     invocations, and the group records with their flow lists are
//     recycled inside the Sim, so a steady-state allocation performs
//     no heap allocation at all. Resources exist only for the VMs and
//     pairs a group actually uses — idle VMs and pairs cost nothing,
//     which is what keeps a 500-DC topology with sparse traffic from
//     paying for 250k pair slots per allocation. Beyond the storage,
//     what a group *is* outlives what it currently *gets*: a group's
//     structure version (group.ver) moves when its flow set, one of
//     its connection counts or one of its pair limits changes —
//     addFlow, finishFlow (so also failFlow, killVM and Stop),
//     SetConns, SetPairLimit, ClearPairLimit — and a scratch whose
//     tables were built for the version the group still carries keeps
//     its VM table, shared resources and their capacities, weights,
//     wiring and member lists. Everything else that dirties an
//     allocation is value-only — CPU load, a fluctuation tick, a ramp
//     level, SetPerConnCap, a partition beginning or healing — and can
//     move only memF, the flows' own caps and the filling state
//     (avail, sumW, dirty), which every fill recomputes. There is no
//     second path: the key is checked on every fill, and a scratch
//     that last served another group, or another version of this one,
//     simply rebuilds.
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
//     at the flow's two VMs (attributeRetrans, the rule every fill
//     ends with): a walk of those two VMs' flow rings instead of a
//     fill, whatever the size of the WAN.
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
	// The structure version (group.ver) the tables were built for.
	// While the next fill's group carries the same one, everything below
	// marked "table" is still right and only the values are recomputed;
	// reused counts the fills that found it so.
	builtVer uint64
	reused   int

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
	// VM l; pair limits follow in first-use order. resCap, availMin and
	// members are table; avail, sumW, dirty and liveRes are reset by
	// every fill.
	nRes     int
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
func (a *fillScratch) addRes(capMbps float64) int32 {
	i := a.nRes
	if i == len(a.resCap) {
		a.resCap = append(a.resCap, 0)
		a.avail = append(a.avail, 0)
		a.availMin = append(a.availMin, 0)
		a.members = append(a.members, nil)
		a.sumW = append(a.sumW, 0)
		a.dirty = append(a.dirty, false)
	}
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

// allocate recomputes flow rates: re-derive the groups an event may
// have split, then water-fill exactly the groups an event touched since
// the last allocation (every group after a Sim-wide event).
func (s *Sim) allocate() {
	g := &s.groups
	// Fragments join the dirty list as a re-derivation makes them.
	for i := 0; i < len(g.dirty); i++ {
		if k := g.dirty[i]; g.groups[k].split {
			g.resplit(s, k)
		}
	}
	// Each group writes only its own flows' rates and its own VMs'
	// retransmission attributions.
	refilled := 0
	if g.dirtyAll {
		for _, gr := range g.groups {
			if gr.live {
				s.scratch.fillGroup(s, gr)
				refilled++
			}
		}
	} else {
		for _, k := range g.dirty {
			if gr := g.groups[k]; gr.live {
				s.scratch.fillGroup(s, gr)
				refilled++
			}
		}
	}
	for _, k := range g.dirty {
		g.groups[k].dirty = false
	}
	g.dirty = g.dirty[:0]
	g.dirtyAll = false
	s.lastGroups, s.lastRefilled = g.live, refilled
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
		a.addRes(spec.EgressMbps * cong)
		a.addRes(spec.IngressMbps * cong)
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
				a.pairRes[p.idx] = a.addRes(p.limit)
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

// fillGroup water-fills one bottleneck group, its flows in start (id)
// order. It writes each flow's cap, rate and cap slack and the
// retransmission attribution of every VM the group touches, and no
// other simulator state.
func (a *fillScratch) fillGroup(s *Sim, gr *group) {
	flows := gr.flows
	if a.builtVer == gr.ver {
		a.reused++
	} else {
		a.buildTables(s, flows)
		a.builtVer = gr.ver
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
			inc := float64(theta * a.weights[fi])
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

	// Every flow of a group VM is in the group and has its new cap.
	for _, v := range a.vms {
		s.attributeRetrans(v)
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
		return float64(2.0 * pressure * float64(conns))
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
	return 1 / (1 + float64(congestionSlope*over))
}

// flowCap is the flow's own ceiling: conns × the pair's per-connection
// cap, scaled by link fluctuation, the receiver's memory factor memF,
// the sender's CPU load and the slow-start ramp.
func (s *Sim) flowCap(f *Flow, memF float64) float64 {
	if s.severed(int(f.srcDC), int(f.dstDC)) {
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
// rounding. What the cap does move is the demand at f's two VMs, so
// their attribution is redone, at the cost of walking their flow
// rings; everything else — and any step not provably inert, including
// every step of a cap-bound or severed (cap 0) flow — takes the
// refill.
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
	s.dirtyVM(f.src)
}

// attributeRetrans sets v's retransmission rate: the overload pressure
// at each of its two resources, proportional to how far the demand on
// it (its flows' caps) exceeds its effective capacity — egress term
// then ingress term, each summing v's ring of flows in start (id)
// order. It is the one attribution rule: a fill ends with it for every
// VM of its group, and a slack ramp step for the flow's two VMs. The
// capacity is recomputed, not read from the fill's tables; it moves
// only with connection counts, which rebuild those tables.
func (s *Sim) attributeRetrans(v VMID) {
	vm := s.vms[v]
	cong := s.congFactor(v)
	vm.lastRetrans = 0
	for dir, specMbps := range [2]float64{vm.spec.EgressMbps, vm.spec.IngressMbps} {
		demand, conns := 0.0, 0
		if last := vm.last[dir]; last != nil {
			for f := last.next[dir]; ; f = f.next[dir] {
				demand += f.capMbps
				conns += int(f.conns)
				if f == last {
					break
				}
			}
		}
		vm.lastRetrans += retransTerm(demand, specMbps*cong, conns)
	}
}

// memFactor degrades per-connection throughput when the receiver runs
// out of buffer headroom (the paper's observation that "each connection
// requires a memory buffer, affecting runtime BW" [17]).
func memFactor(memUtil float64) float64 {
	if memUtil <= 0.85 {
		return 1
	}
	f := 1 - float64((memUtil-0.85)*2.5)
	return math.Max(0.4, f)
}

// cpuFactor degrades sending rate under CPU pressure (sender-limited
// TCP; feature Ci of Table 3 exists because of this coupling).
func cpuFactor(cpuLoad float64) float64 {
	return 1 - float64(0.25*cpuLoad*cpuLoad)
}
