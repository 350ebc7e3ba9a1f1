package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// Sim is the reference implementation of the substrate contract.
var _ substrate.Cluster = (*Sim)(nil)

// Sim is a deterministic event-driven fluid simulator of WAN traffic
// among geo-distributed data centers. See the package comment for the
// model; see Config for the knobs.
//
// Sim is not safe for concurrent use: the analytics engine, agents and
// probes all run inside the single simulated timeline; every
// experiment driver owns its own Sim.
type Sim struct {
	cfg     Config
	regions []geo.Region

	vms     []*vm
	vmsOfDC [][]VMID

	// The pair store: one record per ordered DC pair that has carried a
	// flow, a rate limit or a cap override (see pair). pairAt[pairKey]
	// is 1 + the pair's ordinal in build order, or 0 for a pair never
	// built; records live in append-only blocks of NumDCs values, so a
	// *pair never moves. numLimits counts the pairs with a limit so the
	// common no-limits case stays O(1).
	pairAt     []int32
	pairBlocks [][]pair
	numPairs   int
	numLimits  int

	// partActive counts the currently-active PartitionDC faults per DC;
	// while any is nonzero every inter-DC pair involving the DC has
	// achievable rate zero (see faults.go).
	partActive []int

	// flows is the active set in start (id) order, the order the
	// allocator's float arithmetic and every callback sequence follow:
	// addFlow appends ascending ids, finishFlow removes in place.
	flows      []*Flow
	nextFlowID FlowID

	// Incrementally maintained flow indexes (updated on start/finish/
	// SetConns rather than recomputed per allocation):
	vmConns     []int // connections terminating at each VM (both directions)
	interDCFlow int   // active flows whose endpoints sit in different DCs

	now float64
	// Two event heaps in one (at, seq) order: upper-layer timers and
	// slow-start ramp boundaries. timerSeq numbers the events of both.
	timers     eventHeap[func(now float64)]
	ramps      eventHeap[*Flow]
	timerSeq   int64
	fluctEvery float64 // seconds between fluctuation steps
	// rampMinFactor is the constant of the same name, held in a typed
	// float64 (see rampFactor). Tests set it to build boundary cases.
	rampMinFactor float64

	allocDirty bool
	rampFast   int     // ramp steps rampStep absorbed without a refill
	attrBuf    []*Flow // attributeRetrans scratch
	completed  []*Flow // advanceTo scratch

	// Bottleneck-group machinery (churn.go, alloc.go): the group index,
	// the filling scratch, and the shape of the last allocation for
	// AllocGroups. structEpoch moves whenever the live
	// flow set, a connection count or a pair limit changes — everything
	// the grouping and a group's resource tables are built from;
	// allocations between two moves keep both (alloc.go, layer 3). It
	// starts at 1: 0 is "never built" in groupIndex and fillScratch.
	groups       groupIndex
	scratch      fillScratch
	lastGroups   int
	lastRefilled int
	structEpoch  uint64

	rng *simrand.Source
}

// NewSim builds a simulator from the given configuration.
func NewSim(cfg Config) *Sim {
	cfg = cfg.withDefaults()
	if len(cfg.Regions) == 0 {
		panic("netsim: config has no regions")
	}
	if len(cfg.VMs) != len(cfg.Regions) {
		panic(fmt.Sprintf("netsim: VMs for %d DCs but %d regions", len(cfg.VMs), len(cfg.Regions)))
	}
	s := &Sim{
		cfg:           cfg,
		regions:       append([]geo.Region(nil), cfg.Regions...),
		fluctEvery:    1.0,
		rampMinFactor: rampMinFactor,
		allocDirty:    true,
		rng:           simrand.Derive(cfg.Seed, "netsim"),
	}
	s.groups.dirtyAll = true
	s.structEpoch = 1
	n := len(cfg.Regions)
	s.vmsOfDC = make([][]VMID, n)
	for dc, specs := range cfg.VMs {
		if len(specs) == 0 {
			panic(fmt.Sprintf("netsim: DC %d (%s) has no VMs", dc, cfg.Regions[dc].Name))
		}
		for _, spec := range specs {
			id := VMID(len(s.vms))
			s.vms = append(s.vms, &vm{id: id, dc: dc, spec: spec})
			s.vmsOfDC[dc] = append(s.vmsOfDC[dc], id)
		}
	}
	s.vmConns = make([]int, len(s.vms))
	s.partActive = make([]int, n)
	s.pairAt = make([]int32, n*n)
	if !cfg.Frozen {
		// Every inter-DC pair fluctuates whether or not it carries
		// traffic, and each process's stream is derived from s.rng in
		// i-major order, so a fluctuating network builds all of them
		// here. Frozen networks have no fluctuation processes at all:
		// factor is exactly 1 everywhere, forever.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					s.buildPair(i, j).fluct = newOUProcess(s.rng.Derive(fmt.Sprintf("fluct/%d/%d", i, j)))
				}
			}
		}
		s.scheduleFluct()
	}
	return s
}

// pair is the state of one ordered DC pair. Only pairs something has
// touched have one: addFlow, SetPairLimit and SetPerConnCap build it on
// first use, every read-only accessor treats a missing record as an
// empty, unlimited pair with its geographic physics. A record is never
// removed, so a pair that once carried traffic keeps its flow list's
// storage for the next.
type pair struct {
	flows    []*Flow    // active flows, in start order
	limit    float64    // simulated `tc` rate limit in Mbps; NaN = none
	connBase float64    // Mbps per connection at nominal conditions
	rtt      float64    // round-trip time, seconds
	biasPow  float64    // rtt^RTTBiasExp, precomputed (hot in allocate)
	fluct    *ouProcess // nil on frozen networks and intra-DC pairs
	idx      int32      // ordinal in build order
}

// pairKey flattens a DC pair into an index for pairAt.
func (s *Sim) pairKey(srcDC, dstDC int) int { return srcDC*len(s.regions) + dstDC }

// pairByIdx returns the record with the given ordinal.
func (s *Sim) pairByIdx(idx int32) *pair {
	n := int32(len(s.regions))
	return &s.pairBlocks[idx/n][idx%n]
}

// pairSlots is the number of records the store's blocks hold: the
// size of a scratch keyed by pair ordinal.
func (s *Sim) pairSlots() int { return len(s.pairBlocks) * len(s.regions) }

// lookupPair returns a DC pair's record, or nil if it was never built.
// It never builds one.
func (s *Sim) lookupPair(srcDC, dstDC int) *pair {
	if o := s.pairAt[s.pairKey(srcDC, dstDC)]; o != 0 {
		return s.pairByIdx(o - 1)
	}
	return nil
}

// flowPair returns the record of f's DC pair, which addFlow built.
func (s *Sim) flowPair(f *Flow) *pair {
	return s.pairByIdx(s.pairAt[s.pairKey(f.srcDC, f.dstDC)] - 1)
}

// pairOf returns a DC pair's record, building it on first use.
func (s *Sim) pairOf(srcDC, dstDC int) *pair {
	if p := s.lookupPair(srcDC, dstDC); p != nil {
		return p
	}
	return s.buildPair(srcDC, dstDC)
}

// buildPair appends the record of a pair not built yet, with its
// physics derived from geography and no limit.
func (s *Sim) buildPair(srcDC, dstDC int) *pair {
	idx := s.numPairs
	if idx == s.pairSlots() {
		s.pairBlocks = append(s.pairBlocks, make([]pair, len(s.regions)))
	}
	s.numPairs++
	s.pairAt[s.pairKey(srcDC, dstDC)] = int32(idx + 1)
	rtt := s.rttSeconds(srcDC, dstDC)
	biasRTT := rtt
	if biasRTT <= 0 {
		biasRTT = 1e-3
	}
	p := s.pairByIdx(int32(idx))
	*p = pair{
		limit:    math.NaN(),
		connBase: s.geoConnBase(srcDC, dstDC),
		rtt:      rtt,
		biasPow:  math.Pow(biasRTT, s.cfg.RTTBiasExp),
		idx:      int32(idx),
	}
	return p
}

// geoConnBase is the nominal per-connection cap geography gives a pair.
func (s *Sim) geoConnBase(srcDC, dstDC int) float64 {
	d := geo.DistanceKm(s.regions[srcDC], s.regions[dstDC])
	return perConnA / math.Pow(math.Max(d, minPathKm), perConnExp)
}

// scheduleFluct installs the recurring fluctuation step.
func (s *Sim) scheduleFluct() {
	var step func(now float64)
	step = func(now float64) {
		// Each process draws from its own stream, so build order is as
		// good as any.
		for idx := range int32(s.numPairs) {
			if p := s.pairByIdx(idx); p.fluct != nil {
				p.fluct.advance(now, s.fluctEvery)
				// Only a pair with flows has its factor read before the
				// next tick; addFlow covers a pair that gains one.
				if len(p.flows) > 0 {
					p.fluct.refresh()
				}
			}
		}
		// Fluctuation only moves inter-DC factors, so the step dirties
		// exactly the flows crossing DC boundaries; if none are active
		// the current allocation is still valid and no recompute runs.
		if s.interDCFlow > 0 {
			s.invalidate()
		}
		s.at(now+s.fluctEvery, step)
	}
	s.at(s.now+s.fluctEvery, step)
}

// --- topology accessors ---

// NumDCs returns the number of data centers.
func (s *Sim) NumDCs() int { return len(s.regions) }

// NumVMs returns the total number of virtual machines.
func (s *Sim) NumVMs() int { return len(s.vms) }

// Regions returns the simulated regions in cluster order.
func (s *Sim) Regions() []geo.Region { return s.regions }

// VMsOfDC returns the VM ids hosted in the given DC.
func (s *Sim) VMsOfDC(dc int) []VMID { return s.vmsOfDC[dc] }

// FirstVMOfDC returns the first (primary) VM of a DC.
func (s *Sim) FirstVMOfDC(dc int) VMID { return s.vmsOfDC[dc][0] }

// DCOf returns the DC index hosting the given VM.
func (s *Sim) DCOf(id VMID) int { return s.vms[id].dc }

// Spec returns the VMSpec of the given VM.
func (s *Sim) Spec(id VMID) VMSpec { return s.vms[id].spec }

// rttSeconds returns the modelled round-trip time between two DCs.
func (s *Sim) rttSeconds(i, j int) float64 {
	return geo.RTT(s.regions[i], s.regions[j]).Seconds()
}

// PerConnCapMbps returns the nominal (fluctuation-free) single
// connection throughput cap between two DCs: SetPerConnCap's override,
// or what geography gives a pair that has none.
func (s *Sim) PerConnCapMbps(i, j int) float64 {
	if p := s.lookupPair(i, j); p != nil {
		return p.connBase
	}
	return s.geoConnBase(i, j)
}

// PerConnCapMatrix is PerConnCapMbps for every ordered pair, zero on
// the diagonal: the simulator's ground truth, which oracle beliefs plan
// with and the bundled traces are derived from.
func (s *Sim) PerConnCapMatrix() bwmatrix.Matrix {
	n := s.NumDCs()
	out := bwmatrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				out[i][j] = s.PerConnCapMbps(i, j)
			}
		}
	}
	return out
}

// Now returns the current simulated time in seconds.
func (s *Sim) Now() float64 { return s.now }

// --- host metrics ---

// SetCPULoad sets a VM's CPU utilization in [0, 1]. The analytics
// engine calls this while tasks execute; high CPU load slightly
// degrades achievable sending rate (sender-limited TCP).
func (s *Sim) SetCPULoad(id VMID, load float64) {
	load = math.Max(0, math.Min(1, load))
	if s.vms[id].cpuLoad == load {
		return
	}
	s.vms[id].cpuLoad = load
	// CPU load only enters the allocation through flows that send from
	// or terminate at this VM; with none attached, current rates stand,
	// and with some, only this VM's bottleneck group is refilled.
	if s.vmConns[id] > 0 {
		s.dirtyVM(id)
	}
}

// CPULoad returns the VM's CPU utilization as last set. Unlike VMStats
// it needs nothing the allocator computes, so it never forces a fill.
func (s *Sim) CPULoad(id VMID) float64 { return s.vms[id].cpuLoad }

// connsAt returns the total connections terminating at the VM. O(1):
// the count is maintained incrementally as flows start, finish and
// resize their connection pools.
func (s *Sim) connsAt(id VMID) int { return s.vmConns[id] }

// memUtil returns the VM's memory utilization including connection
// buffers (feature Md).
func (s *Sim) memUtil(id VMID) float64 {
	v := s.vms[id]
	base := 0.20 + 0.25*v.cpuLoad // resident engine + task working set
	buf := float64(s.vmConns[id]) * bufferMBPerConn / (v.spec.MemGB * 1024)
	return math.Min(1, base+buf)
}

// VMStats returns the current host metrics of a VM.
func (s *Sim) VMStats(id VMID) VMStats {
	s.ensureAllocated()
	v := s.vms[id]
	return VMStats{
		CPULoad:       v.cpuLoad,
		MemUtil:       s.memUtil(id),
		RetransPerSec: v.lastRetrans,
		ActiveConns:   s.connsAt(id),
	}
}

// --- traffic control ---

// SetPairLimit installs a rate limit (simulated `tc`) on all traffic
// from srcDC to dstDC, in Mbps. WANify's local agents use this to
// throttle BW-rich links (§3.2.2).
func (s *Sim) SetPairLimit(srcDC, dstDC int, mbps float64) {
	p := s.pairOf(srcDC, dstDC)
	if math.IsNaN(p.limit) {
		s.numLimits++
	}
	p.limit = mbps
	s.structEpoch++
	if len(p.flows) > 0 {
		s.dirtyPair(p)
	}
}

// ClearPairLimit removes a pair rate limit.
func (s *Sim) ClearPairLimit(srcDC, dstDC int) {
	p := s.lookupPair(srcDC, dstDC)
	if p == nil || math.IsNaN(p.limit) {
		return
	}
	// Dirty before clearing: the limit's flows may span several groups
	// only while the shared resource still links them.
	if len(p.flows) > 0 {
		s.dirtyPair(p)
	}
	p.limit = math.NaN()
	s.numLimits--
	s.structEpoch++
}

// pairLimitAt returns the rate limit for a DC pair, or NaN if none.
func (s *Sim) pairLimitAt(srcDC, dstDC int) float64 {
	if p := s.lookupPair(srcDC, dstDC); p != nil {
		return p.limit
	}
	return math.NaN()
}

// SetPerConnCap overrides the nominal single-connection throughput cap
// between two DCs (normally derived from geography at construction).
// The trace-replay backend (internal/tracesim) drives this from
// recorded per-pair timeseries; contention, host factors and tc limits
// still apply on top. The invalidation is scoped like SetPairLimit's:
// with no flows on the pair, current rates stand.
func (s *Sim) SetPerConnCap(srcDC, dstDC int, mbps float64) {
	if mbps < 0 {
		mbps = 0
	}
	p := s.pairOf(srcDC, dstDC)
	if p.connBase == mbps {
		return
	}
	p.connBase = mbps
	if len(p.flows) > 0 {
		s.dirtyPair(p)
	}
}

// --- flows ---

// StartFlow starts a sized transfer of the given bytes from src to dst
// using conns parallel connections. onDone, if non-nil, fires when the
// transfer completes (not when it is stopped early).
func (s *Sim) StartFlow(src, dst VMID, conns int, bytes float64, onDone func()) substrate.Flow {
	return s.startFlow(src, dst, conns, bytes, onDone)
}

// startFlow is StartFlow with the concrete return type, for in-package
// callers (tests, benchmarks) that reach into flow internals.
func (s *Sim) startFlow(src, dst VMID, conns int, bytes float64, onDone func()) *Flow {
	if src == dst {
		panic("netsim: flow src == dst")
	}
	if conns < 1 {
		conns = 1
	}
	if bytes <= 0 {
		panic("netsim: StartFlow needs positive size; use StartProbe for unbounded flows")
	}
	return s.addFlow(src, dst, conns, bytes*8, onDone)
}

// StartProbe starts an unbounded measurement flow (iPerf-style) that
// runs until stopped.
func (s *Sim) StartProbe(src, dst VMID, conns int) substrate.Flow {
	return s.startProbe(src, dst, conns)
}

// startProbe is StartProbe with the concrete return type.
func (s *Sim) startProbe(src, dst VMID, conns int) *Flow {
	if src == dst {
		panic("netsim: probe src == dst")
	}
	if conns < 1 {
		conns = 1
	}
	return s.addFlow(src, dst, conns, math.Inf(1), nil)
}

func (s *Sim) addFlow(src, dst VMID, conns int, bits float64, onDone func()) *Flow {
	srcDC, dstDC := s.vms[src].dc, s.vms[dst].dc
	if s.vms[src].dead || s.vms[dst].dead {
		// A dead VM accepts no flows: the flow is born failed, never
		// enters the active set, and fires OnFail as soon as a handler
		// registers. Like any finished flow it holds no callback (see
		// finishFlow): onDone could never fire. The id is still consumed
		// so flow identities stay unique and ascending regardless of
		// faults.
		f := &Flow{
			id: s.nextFlowID, src: src, dst: dst, srcDC: srcDC, dstDC: dstDC,
			conns: conns, remainingBits: bits, sim: s,
			startedAt: s.now, done: true, failed: true,
		}
		s.nextFlowID++
		return f
	}
	f := &Flow{
		id:            s.nextFlowID,
		src:           src,
		dst:           dst,
		srcDC:         srcDC,
		dstDC:         dstDC,
		conns:         conns,
		remainingBits: bits,
		sim:           s,
		onDone:        onDone,
		startedAt:     s.now,
	}
	s.nextFlowID++

	// TCP slow start: the flow's cap ramps up over a few RTTs; more
	// parallel connections shorten the ramp (larger aggregate initial
	// window). The ramp is quantized into three cap levels, so we
	// schedule a rampStep at each level boundary.
	p := s.pairOf(srcDC, dstDC)
	f.rampS = rampRTTs * p.rtt / (1 + math.Log2(float64(conns)))
	if f.rampS > 0 {
		for _, frac := range [...]float64{1.0 / 3, 2.0 / 3, 1} {
			s.timerSeq++
			s.ramps.push(event[*Flow]{at: s.now + f.rampS*frac, seq: s.timerSeq, x: f})
		}
	}

	s.flows = append(s.flows, f) // ids ascend: start order kept
	s.structEpoch++
	s.vmConns[src] += conns
	s.vmConns[dst] += conns
	p.flows = append(p.flows, f) // ids ascend: start order kept
	if srcDC != dstDC {
		s.interDCFlow++
	}
	if p.fluct != nil {
		p.fluct.refresh() // the tick skips pairs without flows
	}
	s.dirtyFlow(f)
	return f
}

// rampFactor returns the slow-start cap fraction for a flow at the
// current sim time: three quantized steps from rampMinFactor to 1.
func (s *Sim) rampFactor(f *Flow) float64 {
	if f.rampS <= 0 {
		return 1
	}
	age := s.now - f.startedAt
	progress := age / f.rampS
	min := s.rampMinFactor
	// The level boundaries are scheduled as timers at exactly these
	// progress fractions; tolerate float round-off so the flow cannot
	// get stuck one epsilon below a level with no further event coming.
	const eps = 1e-9
	switch {
	case progress >= 1-eps:
		return 1
	case progress >= 2.0/3-eps:
		return min + (1-min)*0.75
	case progress >= 1.0/3-eps:
		return min + (1-min)*0.45
	default:
		return min
	}
}

// finishFlow removes a flow from the active set, keeping start order.
func (s *Sim) finishFlow(f *Flow) {
	if f.done {
		return
	}
	f.done = true
	f.rate = 0
	// Dirty while the flow's endpoints still carry their last-allocation
	// grouping; the whole former group refills (a finish can split it).
	s.dirtyFlow(f)
	i, _ := slices.BinarySearchFunc(s.flows, f.id, func(g *Flow, id FlowID) int { return cmp.Compare(g.id, id) })
	s.flows = slices.Delete(s.flows, i, i+1)
	s.structEpoch++

	s.vmConns[f.src] -= f.conns
	s.vmConns[f.dst] -= f.conns
	// A VM with no remaining flows joins no bottleneck group, so no
	// refill would reset its attribution; zero it at departure.
	if s.vmConns[f.src] == 0 {
		s.vms[f.src].lastRetrans = 0
	}
	if s.vmConns[f.dst] == 0 {
		s.vms[f.dst].lastRetrans = 0
	}
	p := s.flowPair(f)
	for i, g := range p.flows {
		if g == f {
			// Order-preserving removal: pair lists stay in start order
			// so PairRate sums deterministically. Lists are per-pair and
			// short, so the copy is cheap.
			p.flows = append(p.flows[:i], p.flows[i+1:]...)
			break
		}
	}
	if f.srcDC != f.dstDC {
		s.interDCFlow--
	}
	// A finished flow drops its callbacks, so a handle that outlives it
	// (a caller's, a pending ramp boundary's) keeps nothing of the job
	// that launched it reachable, and a caller may reuse whatever the
	// callbacks point at once they have fired.
	onDone, onFail := f.onDone, f.onFail
	f.onDone, f.onFail = nil, nil
	switch {
	case f.failed:
		if onFail != nil {
			onFail()
		}
	case !f.stopped:
		if onDone != nil {
			onDone()
		}
	}
}

// ActiveFlows returns the number of currently active flows.
func (s *Sim) ActiveFlows() int { return len(s.flows) }

// PairRate returns the current aggregate rate (Mbps) of all active
// flows from srcDC to dstDC. The per-pair flow index makes this
// O(flows on the pair) rather than O(all flows).
func (s *Sim) PairRate(srcDC, dstDC int) float64 {
	s.ensureAllocated()
	total := 0.0
	if p := s.lookupPair(srcDC, dstDC); p != nil {
		for _, f := range p.flows {
			total += f.rate
		}
	}
	return total
}

// --- timers and the event loop ---

// event is one entry of an event heap: x is due at instant at, and seq
// (from Sim.timerSeq, shared by every heap) breaks ties in the order
// the events were scheduled.
type event[T any] struct {
	at  float64
	seq int64
	x   T
}

// eventHeap is a binary min-heap of events ordered by (at, seq). The
// simulator keeps two: upper-layer timers (x is the callback) and
// slow-start ramp boundaries (x is the flow), so a boundary needs no
// closure. It replaces the earlier container/heap implementation, whose
// heap.Interface methods forced every event through an interface{}
// (now spelled any) box — one allocation per scheduled timer. The typed
// sift operations below allocate only on slice growth.
type eventHeap[T any] []event[T]

func (h eventHeap[T]) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap[T]) push(ev event[T]) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap[T]) pop() event[T] {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event[T]{} // release the callback or flow
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

func (s *Sim) at(t float64, fn func(now float64)) {
	s.timerSeq++
	s.timers.push(event[func(now float64)]{at: t, seq: s.timerSeq, x: fn})
}

// After schedules fn to run once, delay seconds from now.
func (s *Sim) After(delay float64, fn func(now float64)) {
	s.at(s.now+delay, fn)
}

// Every schedules fn to run every interval seconds, starting one
// interval from now. The returned cancel function stops future firings.
func (s *Sim) Every(interval float64, fn func(now float64)) (cancel func()) {
	t := &ticker{s: s, interval: interval, fn: fn}
	t.tick = t.fire
	s.at(s.now+interval, t.tick)
	return t.stop
}

// ticker is one Every timer. It binds its fire method once, so a
// periodic timer costs the ticker, that method value and the stop
// method value Every returns, however often it fires.
type ticker struct {
	s        *Sim
	interval float64
	fn       func(now float64)
	tick     func(now float64) // fire, bound once
	stopped  bool
}

func (t *ticker) fire(now float64) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped {
		t.s.at(now+t.interval, t.tick)
	}
}

func (t *ticker) stop() { t.stopped = true }

// RunFor advances the simulation by d seconds.
func (s *Sim) RunFor(d float64) { s.RunUntil(s.now + d) }

// RunUntil advances the simulation until time t.
func (s *Sim) RunUntil(t float64) {
	const eps = 1e-9
	for s.now < t-eps {
		s.stepOnce(t)
	}
	if t > s.now {
		s.now = t
	}
}

// stepOnce advances simulated time to the next event (flow completion
// or timer), bounded by limit, firing due timers. It guarantees
// progress: when no event precedes limit, time jumps to limit.
func (s *Sim) stepOnce(limit float64) {
	const eps = 1e-9
	s.ensureAllocated()

	next := limit
	// Earliest sized-flow completion at current rates.
	for _, f := range s.flows {
		if f.Probe() || f.rate <= 0 {
			continue
		}
		tc := s.now + f.remainingBits/(f.rate*1e6)
		if tc < next {
			next = tc
		}
	}
	// Earliest timer or ramp boundary.
	if at, _, ok := s.nextEvent(); ok && at < next {
		next = at
	}
	if next < s.now {
		next = s.now
	}
	s.advanceTo(next)

	// Fire all events due at the new time, both heaps merged in (at, seq)
	// order: the earlier head is the earliest event of all, so it is due
	// exactly when any event is.
	for {
		at, ramp, ok := s.nextEvent()
		if !ok || at > s.now+eps {
			return
		}
		if ramp {
			s.rampStep(s.ramps.pop().x)
		} else {
			s.timers.pop().x(s.now)
		}
	}
}

// nextEvent returns the instant of the earliest pending event in (at,
// seq) order and whether it is a ramp boundary (else a timer); ok is
// false when neither heap holds one.
func (s *Sim) nextEvent() (at float64, ramp, ok bool) {
	if len(s.ramps) > 0 {
		r := &s.ramps[0]
		if len(s.timers) == 0 || r.at < s.timers[0].at || r.at == s.timers[0].at && r.seq < s.timers[0].seq {
			return r.at, true, true
		}
	}
	if len(s.timers) > 0 {
		return s.timers[0].at, false, true
	}
	return 0, false, false
}

// advanceTo moves time forward to tNext, crediting flow progress at the
// current (valid) rates and completing flows that drain.
func (s *Sim) advanceTo(tNext float64) {
	dt := tNext - s.now
	if dt <= 0 {
		s.now = math.Max(s.now, tNext)
		return
	}
	// Completions are collected in s.flows' start order, so onDone
	// callbacks fire in id order. The scratch is detached while they run:
	// a callback that steps the simulation gets its own.
	completed := s.completed[:0]
	s.completed = nil
	for _, f := range s.flows {
		bits := f.rate * 1e6 * dt
		f.sentBits += bits
		if !f.Probe() {
			f.remainingBits -= bits
			if f.remainingBits <= 1 { // sub-bit residue: done
				f.remainingBits = 0
				completed = append(completed, f)
			}
		}
	}
	for _, v := range s.vms {
		v.retransAccum += v.lastRetrans * dt
	}
	s.now = tNext
	for _, f := range completed {
		s.finishFlow(f)
	}
	clear(completed)
	s.completed = completed
}

// AwaitFlows runs the simulation until all given flows are done, or
// until maxWait seconds have elapsed (returning an error in that case).
// It stops at the exact completion instant of the last flow, so no
// simulated time is wasted.
func (s *Sim) AwaitFlows(maxWait float64, flows ...substrate.Flow) error {
	deadline := s.now + maxWait
	for {
		all := true
		for _, f := range flows {
			if !f.Done() {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		if s.now >= deadline {
			return fmt.Errorf("netsim: flows not drained after %.1fs of simulated time (pending: %s)",
				maxWait, substrate.DescribePending(s, flows))
		}
		s.stepOnce(deadline)
	}
}
