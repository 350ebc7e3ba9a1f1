package netsim

import (
	"math"
	"slices"
)

// resKind distinguishes the oracle's resource types (for
// retransmission attribution). resFlowCap is the fourth: the oracle
// still models a flow's own cap as a single-member resource, which the
// production allocator no longer does (alloc.go, layer 4).
type resKind uint8

const (
	resEgress resKind = iota
	resIngress
	resPairLimit
	resFlowCap
)

// allocateReference is the from-scratch allocator, preserved as the
// oracle for the incremental sharded allocator — equivalence tests
// require bit-identical rates — and as the baseline for
// BenchmarkAllocatorChurn. It rebuilds everything on every call: the
// bottleneck-group partition is re-derived with a throwaway union-find,
// per-VM connection totals come from O(flows) rescans of the flow list
// (O(flows²) per allocation), and every resource's unfrozen weight sum
// is recomputed each filling round.
//
// Groups are water-filled one after another, exactly as the production
// path defines the allocation: each group's progressive filling sees
// only its own resources, so its float sequence is a pure function of
// group-local state. (Before the sharded allocator, filling ran one
// global round loop over all flows; on a single-group flow set — every
// dense paper-scale workload — the two formulations execute the same
// arithmetic, which is what kept the historical goldens byte-stable.)
//
// It does not mutate simulator state: rates[i] is the rate of the i-th
// active flow in start (id) order, retrans[v] the per-VM
// retransmission rate the allocation implies.
func (s *Sim) allocateReference() (rates []float64, retrans []float64) {
	rates, retrans, _ = s.allocateReferenceSlack()
	return rates, retrans
}

// allocateReferenceSlack is allocateReference plus, per flow, whether
// the fill ended with the flow's own cap resource unsaturated — what
// the production fill records as Flow.capSlack.
func (s *Sim) allocateReferenceSlack() (rates []float64, retrans []float64, slack []bool) {
	order := make([]*Flow, len(s.flows))
	copy(order, s.flows)
	slices.SortFunc(order, func(x, y *Flow) int {
		switch {
		case x.id < y.id:
			return -1
		case x.id > y.id:
			return 1
		default:
			return 0
		}
	})
	nf := len(order)
	retrans = make([]float64, len(s.vms))
	if nf == 0 {
		return nil, retrans, nil
	}

	// Congestion factor per VM, from a full rescan of the flow list.
	// A VM's flows all live in its own group, so the global scan equals
	// a group-local one.
	congFactor := make([]float64, len(s.vms))
	totalConns := make([]int, len(s.vms))
	for _, f := range order {
		totalConns[f.src] += int(f.conns)
		totalConns[f.dst] += int(f.conns)
	}
	for i := range s.vms {
		over := float64(totalConns[i] - s.cfg.CongestionKnee)
		if over < 0 {
			over = 0
		}
		congFactor[i] = 1 / (1 + float64(congestionSlope*over))
	}

	// Bottleneck groups: connected components over VMs joined by flows,
	// plus links between flows sharing a rate-limited DC pair — the
	// same partition rule the production allocator applies (churn.go).
	parent := make([]int, len(s.vms))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(v int) int {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, f := range order {
		union(int(f.src), int(f.dst))
	}
	if s.numLimits > 0 {
		pairFirst := make(map[int]int)
		for _, f := range order {
			if math.IsNaN(s.pairLimitAt(int(f.srcDC), int(f.dstDC))) {
				continue
			}
			k := s.pairKey(int(f.srcDC), int(f.dstDC))
			if v, ok := pairFirst[k]; ok {
				union(int(f.src), v)
			} else {
				pairFirst[k] = int(f.src)
			}
		}
	}
	groupIdx := make(map[int]int)
	var groups [][]int // per group: member flow indices, ascending
	for fi, f := range order {
		r := find(int(f.src))
		gi, ok := groupIdx[r]
		if !ok {
			gi = len(groups)
			groupIdx[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], fi)
	}

	rates = make([]float64, nf)
	slack = make([]bool, nf)
	for _, members := range groups {
		for li, sl := range s.refFillGroup(order, members, congFactor, rates, retrans) {
			slack[members[li]] = sl
		}
	}
	return rates, retrans, slack
}

// refFillGroup water-fills one bottleneck group the original way:
// every weight sum recomputed every round, per-flow host factors from
// full rescans. members lists the group's flow indices into order,
// ascending (id order). The result says, per member, whether its own
// cap resource ended the fill unsaturated.
func (s *Sim) refFillGroup(order []*Flow, members []int, congFactor []float64, rates, retrans []float64) (slack []bool) {
	// connsScan/memScan rescan the flow list per call, exactly like the
	// original connsAt/memUtil did.
	connsScan := func(id VMID) int {
		total := 0
		for _, f := range order {
			if f.src == id || f.dst == id {
				total += int(f.conns)
			}
		}
		return total
	}
	memScan := func(id VMID) float64 {
		v := s.vms[id]
		base := 0.20 + float64(0.25*v.cpuLoad)
		buf := float64(connsScan(id)) * bufferMBPerConn / (v.spec.MemGB * 1024)
		return math.Min(1, base+buf)
	}

	// Build resources: egress/ingress per group VM (first-appearance
	// order), then per-flow caps and lazily materialized pair limits in
	// flow order.
	type refResource struct {
		kind    resKind
		vm      VMID
		cap     float64
		members []int // local flow ordinals
	}
	var resources []refResource
	egressIdx := make(map[VMID]int)
	ingressIdx := make(map[VMID]int)
	addVM := func(v VMID) {
		if _, ok := egressIdx[v]; ok {
			return
		}
		egressIdx[v] = len(resources)
		resources = append(resources, refResource{kind: resEgress, vm: v, cap: s.vms[v].spec.EgressMbps * congFactor[v]})
		ingressIdx[v] = len(resources)
		resources = append(resources, refResource{kind: resIngress, vm: v, cap: s.vms[v].spec.IngressMbps * congFactor[v]})
	}
	for _, fi := range members {
		addVM(order[fi].src)
		addVM(order[fi].dst)
	}
	pairIdx := make(map[[2]int]int)

	ng := len(members)
	weights := make([]float64, ng)
	flowRes := make([][]int, ng) // resource indices per local flow
	for li, fi := range members {
		f := order[fi]
		srcDC, dstDC := int(f.srcDC), int(f.dstDC)
		p := s.lookupPair(srcDC, dstDC)
		fluct := 1.0
		if p.fluct != nil {
			fluct = p.fluct.factor()
		}
		memF := memFactor(memScan(f.dst))
		cpuF := cpuFactor(s.vms[f.src].cpuLoad)
		capF := float64(f.conns) * s.PerConnCapMbps(srcDC, dstDC) * fluct * memF * cpuF * s.rampFactor(f)
		if s.severed(srcDC, dstDC) {
			capF = 0
		}
		// Per-flow cap resource.
		capRes := len(resources)
		resources = append(resources, refResource{kind: resFlowCap, cap: capF})

		rtt := p.rtt
		if rtt <= 0 {
			rtt = 1e-3
		}
		weights[li] = float64(f.conns) / math.Pow(rtt, s.cfg.RTTBiasExp)

		rs := []int{egressIdx[f.src], ingressIdx[f.dst], capRes}
		if limit := s.pairLimitAt(srcDC, dstDC); !math.IsNaN(limit) {
			idx, ok := pairIdx[[2]int{srcDC, dstDC}]
			if !ok {
				idx = len(resources)
				resources = append(resources, refResource{kind: resPairLimit, cap: limit})
				pairIdx[[2]int{srcDC, dstDC}] = idx
			}
			rs = append(rs, idx)
		}
		flowRes[li] = rs
	}
	for li, rs := range flowRes {
		for _, r := range rs {
			resources[r].members = append(resources[r].members, li)
		}
	}

	// Progressive filling, recomputing every weight sum every round.
	groupRates := make([]float64, ng)
	frozen := make([]bool, ng)
	avail := make([]float64, len(resources))
	for i := range resources {
		avail[i] = resources[i].cap
	}
	remaining := ng
	const eps = 1e-9
	for remaining > 0 {
		theta := math.Inf(1)
		for ri := range resources {
			sumW := 0.0
			for _, li := range resources[ri].members {
				if !frozen[li] {
					sumW += weights[li]
				}
			}
			if sumW > 0 {
				if t := avail[ri] / sumW; t < theta {
					theta = t
				}
			}
		}
		if math.IsInf(theta, 1) {
			break
		}
		if theta < 0 {
			theta = 0
		}
		for li := range groupRates {
			if frozen[li] {
				continue
			}
			inc := float64(theta * weights[li])
			groupRates[li] += inc
			for _, ri := range flowRes[li] {
				avail[ri] -= inc
			}
		}
		frozeAny := false
		for ri := range resources {
			if avail[ri] > eps*math.Max(1, resources[ri].cap) {
				continue
			}
			for _, li := range resources[ri].members {
				if !frozen[li] {
					frozen[li] = true
					remaining--
					frozeAny = true
				}
			}
		}
		if !frozeAny {
			for li := range frozen {
				if !frozen[li] {
					frozen[li] = true
					remaining--
				}
			}
		}
	}
	slack = make([]bool, ng)
	for li, fi := range members {
		rates[fi] = groupRates[li]
		c := flowRes[li][2]
		slack[li] = avail[c] > eps*math.Max(1, resources[c].cap)
	}

	// Retransmission attribution.
	for ri := range resources {
		r := &resources[ri]
		if r.kind != resEgress && r.kind != resIngress {
			continue
		}
		demand := 0.0
		conns := 0
		for _, li := range r.members {
			demand += resources[flowRes[li][2]].cap
			conns += int(order[members[li]].conns)
		}
		if r.cap <= 0 {
			continue
		}
		pressure := demand/r.cap - 1
		if pressure > 0 {
			retrans[r.vm] += float64(2.0 * pressure * float64(conns))
		}
	}
	return slack
}
