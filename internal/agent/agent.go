// Package agent implements WANify's Local Agent (§3.2.2, §4.1.3): the
// per-VM runtime component that fine-tunes the heterogeneous connection
// counts inside the [minCons, maxCons] window computed by the global
// optimizer.
//
// Each agent bundles the paper's three sub-modules:
//
//   - WAN Monitor: ifTop-like accounting of the VM's achieved outbound
//     rate toward every destination DC (derived from the bytes its
//     registered transfers moved during the last epoch).
//   - Local Optimizer: an AIMD loop on a 5-second epoch. Targets start
//     at the maximum of the window; when the monitored rate falls
//     significantly (>100 Mbps) below target — congestion — connections
//     and target BW halve (not below the minimum); otherwise they climb
//     additively (+1 connection, linear BW) back toward the maximum.
//     Pairs that moved less than 1 MB in the epoch are skipped, since
//     an idle link says nothing about congestion.
//   - Connections Manager: applies the chosen counts to the active
//     transfer pool and answers "how many connections should a new
//     transfer to DC j use?".
//
// Agents also throttle BW-rich destinations (simulated `tc`): links
// whose achievable bandwidth exceeds the source's mean achievable
// bandwidth T are capped at T, so nearby DCs cannot starve distant ones.
package agent

import (
	"fmt"
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/substrate"
)

// The agent's fixed AIMD parameters.
const (
	// epochS is the AIMD epoch (5 s, §5.7).
	epochS = 5.0
	// significantMbps is the congestion threshold Δ.
	significantMbps = 100.0
	// minTransferBytes is the per-epoch transfer size below which a
	// pair is skipped (1 MB, §3.2.2).
	minTransferBytes = 1 << 20
)

// Config configures a local agent.
type Config struct {
	// Throttle enables BW-rich link throttling via simulated `tc`.
	Throttle bool
}

// PlanRow is the slice of a global-optimization Plan that concerns one
// source VM: per-destination-DC connection windows and BW targets. For
// multi-VM DCs ChunkPlan chunks the DC-level plan first. A PlanRow
// handed to ApplyPlan or SwapWindow is borrowed for the call: the agent
// copies it into storage of its own.
type PlanRow struct {
	MinConns, MaxConns []int
	MinBW, MaxBW       []float64
	// PredBW is the predicted per-connection runtime bandwidth toward
	// each destination; the linear achievable-BW model (Eq. 3) scales
	// it by the connection count.
	PredBW []float64
}

// width reports the row's destination count, or -1 when its five
// slices disagree.
func (r PlanRow) width() int {
	n := len(r.MinConns)
	if len(r.MaxConns) != n || len(r.MinBW) != n || len(r.MaxBW) != n || len(r.PredBW) != n {
		return -1
	}
	return n
}

// clone returns a copy of the row on fresh memory.
func (r PlanRow) clone() PlanRow {
	return PlanRow{
		MinConns: append([]int(nil), r.MinConns...),
		MaxConns: append([]int(nil), r.MaxConns...),
		MinBW:    append([]float64(nil), r.MinBW...),
		MaxBW:    append([]float64(nil), r.MaxBW...),
		PredBW:   append([]float64(nil), r.PredBW...),
	}
}

// carveRow lays a row of width n over the first 2n ints and 3n floats
// of two slabs.
func carveRow(ints []int, floats []float64, n int) PlanRow {
	return PlanRow{
		MinConns: ints[:n:n],
		MaxConns: ints[n : 2*n : 2*n],
		MinBW:    floats[:n:n],
		MaxBW:    floats[n : 2*n : 2*n],
		PredBW:   floats[2*n : 3*n : 3*n],
	}
}

// ChunkPlan splits a DC-level global plan into one PlanRow per VM,
// indexed by VMID (the association/chunking path of §3.3.3): VM idx of
// a k-VM DC gets conns/k of each connection count, plus one when
// idx < conns%k, and the per-VM slice of the DC's predicted bandwidth.
// The per-DC sum of the VM chunks equals the DC-level window exactly —
// when a DC has more VMs than connections the spare slots go to the
// lowest-index VMs and the rest get a zero window (their transfers
// still open one physical connection, the ConnsTo floor, but their AIMD
// targets stay down so the DC as a whole honors the optimizer's cap).
// An earlier version floored every chunk at one connection, which let
// k VMs oversubscribe a window of conns < k; see
// TestChunkPlanSumsToGlobalPlan. Both initial deployment
// (wanify.Framework.DeployAgents) and mid-job window swaps
// (internal/runtime) chunk through here, so a re-gauged plan lands on
// every agent exactly the way the original one did.
func ChunkPlan(sim substrate.Cluster, pred bwmatrix.Matrix, plan optimize.Plan) []PlanRow {
	return ChunkPlanInto(nil, sim, pred, plan)
}

// ChunkPlanInto is ChunkPlan with caller-owned rows: dst — nil, or an
// earlier result of this function — is reused when it holds one row per
// VM of the cluster's width and replaced otherwise (one []int and one
// []float64 slab back all rows). Every entry is rewritten on every
// call, the intra-DC one included, so the result is bit-identical to
// ChunkPlan's whatever dst held, and valid until the next call with the
// same dst.
func ChunkPlanInto(dst []PlanRow, sim substrate.Cluster, pred bwmatrix.Matrix, plan optimize.Plan) []PlanRow {
	n, vms := sim.NumDCs(), sim.NumVMs()
	reuse := len(dst) == vms
	for v := 0; reuse && v < vms; v++ {
		reuse = dst[v].width() == n
	}
	if !reuse {
		dst = make([]PlanRow, vms)
		ints, floats := make([]int, 2*vms*n), make([]float64, 3*vms*n)
		for v := range dst {
			dst[v] = carveRow(ints, floats, n)
			ints, floats = ints[2*n:], floats[3*n:]
		}
	}
	for dc := 0; dc < n; dc++ {
		dcVMs := sim.VMsOfDC(dc)
		k := len(dcVMs)
		if k == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if j == dc {
				for _, vm := range dcVMs {
					row := &dst[vm]
					row.MinConns[j], row.MaxConns[j] = 1, 1
					row.MinBW[j], row.MaxBW[j], row.PredBW[j] = 0, 0, 0
				}
				continue
			}
			minC, maxC := plan.MinConns[dc][j], plan.MaxConns[dc][j]
			minSpare, maxSpare := minC%k, maxC%k
			perVM := pred[dc][j] / float64(k)
			for idx, vm := range dcVMs {
				minChunk, maxChunk := minC/k, maxC/k
				if idx < minSpare {
					minChunk++
				}
				if idx < maxSpare {
					maxChunk++
				}
				if maxChunk < minChunk {
					// The chunk rule is per-index monotone in the count, so
					// this can only mean the plan itself had min > max —
					// surface the malformed plan rather than silently
					// widening a chunk past the DC window.
					panic(fmt.Sprintf("agent: plan window min %d > max %d on pair (%d,%d)",
						minC, maxC, dc, j))
				}
				row := &dst[vm]
				row.MinConns[j] = minChunk
				row.MaxConns[j] = maxChunk
				// Per-VM share of the DC-level predicted bandwidth.
				row.PredBW[j] = perVM
				row.MinBW[j] = perVM * float64(minChunk)
				row.MaxBW[j] = perVM * float64(maxChunk)
			}
		}
	}
	return dst
}

// Agent is a local agent bound to one VM. Its state is the live window,
// targets, pool and last monitor reading, on two slabs allocated at the
// first ApplyPlan; an epoch rewrites them in place and keeps no record.
type Agent struct {
	sim substrate.Cluster
	vm  substrate.VMID
	dc  int
	cfg Config

	ints       []int     // slabs behind row, conns and the per-destination state:
	floats     []float64 // allocated at the first ApplyPlan, kept across Reset
	row        PlanRow   // the agent's own copy of the window, never a caller's slices
	conns      []int     // current target connections per destination DC
	targetBW   []float64 // current target bandwidth per destination DC
	active     []substrate.Flow
	lastBytes  []float64 // parallel to active: bytes each flow had moved at the last epoch
	epochBytes []float64 // per destination DC, bytes moved this epoch
	monitored  []float64 // last epoch's WAN-monitor rates, Mbps per destination DC
	monitoring bool      // an epoch has written monitored

	epochFn func(float64) // a.epoch, bound once by New so Start allocates no method value
	cancel  func()
	started bool
}

// New creates an agent for the given VM. ApplyPlan must be called
// before Start.
func New(sim substrate.Cluster, vm substrate.VMID, cfg Config) *Agent {
	a := &Agent{
		sim: sim,
		vm:  vm,
		dc:  sim.DCOf(vm),
		cfg: cfg,
	}
	a.epochFn = a.epoch
	return a
}

// DC returns the agent's data center index.
func (a *Agent) DC() int { return a.dc }

// VM returns the agent's VM.
func (a *Agent) VM() substrate.VMID { return a.vm }

// ApplyPlan installs (or replaces) the optimization window and resets
// targets to the maximum configuration, the AIMD starting state chosen
// "as the initial state ... begins from maximum throughput and
// gradually reduces with congestion" (§3.2.2). The row is copied into
// storage the agent allocates at its first ApplyPlan; the caller may
// overwrite it as soon as the call returns.
func (a *Agent) ApplyPlan(row PlanRow) {
	a.copyRow(row)
	copy(a.conns, row.MaxConns)
	copy(a.targetBW, row.MaxBW)
	if a.cfg.Throttle {
		a.applyThrottles()
	}
}

// copyRow checks a borrowed row's width and copies it into a.row,
// allocating the agent's per-destination state on first use.
func (a *Agent) copyRow(row PlanRow) {
	n := a.sim.NumDCs()
	if row.width() != n {
		panic(fmt.Sprintf("agent: plan row width != %d DCs", n))
	}
	if a.conns == nil {
		if a.ints == nil {
			a.ints, a.floats = make([]int, 3*n), make([]float64, 6*n)
		}
		ints, floats := a.ints, a.floats
		a.row = carveRow(ints, floats, n)
		a.conns = ints[2*n:]
		a.targetBW, a.epochBytes, a.monitored = floats[3*n:4*n:4*n], floats[4*n:5*n:5*n], floats[5*n:]
	}
	copy(a.row.MinConns, row.MinConns)
	copy(a.row.MaxConns, row.MaxConns)
	copy(a.row.MinBW, row.MinBW)
	copy(a.row.MaxBW, row.MaxBW)
	copy(a.row.PredBW, row.PredBW)
}

// Window returns a copy of the optimization window the agent currently
// runs inside — what the last ApplyPlan or SwapWindow installed (the
// zero PlanRow before the first).
func (a *Agent) Window() PlanRow { return a.row.clone() }

// applyThrottles installs `tc` limits on BW-rich destinations: T is the
// mean achievable (max) BW from this DC; richer links are capped at T.
func (a *Agent) applyThrottles() {
	n := a.sim.NumDCs()
	sum, cnt := 0.0, 0
	for j := 0; j < n; j++ {
		if j != a.dc {
			sum += a.row.MaxBW[j]
			cnt++
		}
	}
	if cnt == 0 {
		return
	}
	t := sum / float64(cnt)
	for j := 0; j < n; j++ {
		if j == a.dc {
			continue
		}
		if a.row.MaxBW[j] > t {
			a.sim.SetPairLimit(a.dc, j, t)
		} else {
			a.sim.ClearPairLimit(a.dc, j)
		}
	}
}

// Start begins the AIMD epochs.
func (a *Agent) Start() {
	if a.started {
		return
	}
	if a.conns == nil {
		panic("agent: Start before ApplyPlan")
	}
	a.started = true
	a.cancel = a.sim.Every(epochS, a.epochFn)
}

// Stop halts the AIMD loop and removes this agent's throttles.
func (a *Agent) Stop() {
	if !a.started {
		return
	}
	a.started = false
	a.cancel()
	if a.cfg.Throttle {
		for j := 0; j < a.sim.NumDCs(); j++ {
			if j != a.dc {
				a.sim.ClearPairLimit(a.dc, j)
			}
		}
	}
}

// Reset returns a stopped agent to the state New gives it — no window,
// no targets, an empty pool, no monitor reading — but keeps its slabs
// and pool storage, so re-arming it (ApplyPlan, Start) allocates only
// the epoch timer. A deployment slot resets its agents for a new job.
func (a *Agent) Reset() {
	if a.started {
		panic("agent: Reset of a running agent")
	}
	a.row, a.conns, a.targetBW, a.epochBytes, a.monitored = PlanRow{}, nil, nil, nil, nil
	clear(a.active) // the previous job's flows are not retained
	a.active, a.lastBytes = a.active[:0], a.lastBytes[:0]
	a.monitoring, a.cancel = false, nil
}

// ConnsTo returns the connection count a new transfer from this VM to
// dstDC should open — the Connections Manager's answer.
func (a *Agent) ConnsTo(dstDC int) int {
	if a.conns == nil || dstDC == a.dc {
		return 1
	}
	c := a.conns[dstDC]
	if c < 1 {
		return 1
	}
	return c
}

// Register adds an active transfer to the agent's pool so the
// Connections Manager can resize it and the WAN Monitor can account its
// bytes. Only flows originating at the agent's VM are accepted.
func (a *Agent) Register(f substrate.Flow) {
	if f.Src() != a.vm {
		panic("agent: registering a flow from another VM")
	}
	a.active = append(a.active, f)
	a.lastBytes = append(a.lastBytes, f.TransferredBytes())
}

// TargetBW returns a copy of the current per-destination target
// bandwidths.
func (a *Agent) TargetBW() []float64 {
	return append([]float64(nil), a.targetBW...)
}

// MonitoredMbps returns a copy of the WAN Monitor's achieved rates from
// the most recent AIMD epoch (Mbps per destination DC), or nil before
// the first epoch has run. The runtime re-gauging controller
// (internal/runtime) aggregates these across agents into the live
// cluster bandwidth matrix it checks the global plan against.
func (a *Agent) MonitoredMbps() []float64 {
	if !a.monitoring {
		return nil
	}
	return append([]float64(nil), a.monitored...)
}

// AddTo adds, without copying anything, the agent's last WAN-monitor
// reading to live, its current target bandwidths to target and its
// in-flight transfer counts to demand — each a per-destination-DC row
// the caller owns, whose entry for the agent's own DC is left as it
// is. Before the first epoch it adds nothing. The re-gauging
// controller (internal/runtime) sums every agent's rows through here
// into the live, expected and demand matrices it checks the global plan
// against; MonitoredMbps and TargetBW are the copying reads of the
// same state.
func (a *Agent) AddTo(live, target []float64, demand []int) {
	if !a.monitoring {
		return
	}
	for j, m := range a.monitored {
		if j != a.dc {
			live[j] += m
			target[j] += a.targetBW[j]
		}
	}
	for _, f := range a.active {
		if d := a.sim.DCOf(f.Dst()); !f.Done() && d != a.dc {
			demand[d]++
		}
	}
}

// Conns returns a copy of the current per-destination connection
// targets.
func (a *Agent) Conns() []int {
	return append([]int(nil), a.conns...)
}

// epoch runs one AIMD step.
func (a *Agent) epoch(float64) {
	if !a.sim.VMAlive(a.vm) {
		// A dead VM's agent is gone with its host: no AIMD decisions, no
		// throttle writes, no monitor updates — the controller's
		// aggregation skips it and evacuation routes around its DC.
		return
	}
	n := a.sim.NumDCs()
	clear(a.epochBytes)

	// WAN Monitor: account bytes moved by the registered pool since the
	// last epoch, dropping completed flows.
	kept := a.active[:0]
	for k, f := range a.active {
		moved := f.TransferredBytes() - a.lastBytes[k]
		dst := a.sim.DCOf(f.Dst())
		a.epochBytes[dst] += moved
		if f.Done() {
			continue
		}
		a.lastBytes[len(kept)] = f.TransferredBytes()
		kept = append(kept, f)
	}
	clear(a.active[len(kept):]) // finished flows are not retained
	a.active, a.lastBytes = kept, a.lastBytes[:len(kept)]
	for j, b := range a.epochBytes {
		a.monitored[j] = b * 8 / 1e6 / epochS // Mbps
	}
	a.monitoring = true

	for j := 0; j < n; j++ {
		if j == a.dc {
			continue
		}
		// Skip rule: a pair that moved almost nothing tells us nothing.
		if a.epochBytes[j] < minTransferBytes {
			continue
		}
		if a.targetBW[j]-a.monitored[j] > significantMbps {
			// Multiplicative decrease: congestion.
			a.conns[j] = max(a.row.MinConns[j], a.conns[j]/2)
			a.targetBW[j] = math.Max(a.row.MinBW[j], a.targetBW[j]/2)
		} else {
			// Additive increase back toward the maximum configuration.
			if a.conns[j] < a.row.MaxConns[j] {
				a.conns[j]++
			}
			a.targetBW[j] = math.Min(a.row.MaxBW[j],
				math.Max(a.targetBW[j], float64(a.conns[j])*a.row.PredBW[j]))
		}
		// Resize the live pool toward the new target.
		for _, f := range a.active {
			if a.sim.DCOf(f.Dst()) == j {
				f.SetConns(a.conns[j])
			}
		}
	}
}

// SwapWindow atomically replaces the agent's optimization window with a
// re-gauged plan row while the AIMD loop keeps running — the mid-job
// rebalance path (internal/runtime). Unlike ApplyPlan it preserves the
// AIMD state: the current connection counts and target bandwidths are
// clamped into the new [min, max] window rather than reset to the
// maximum configuration, so a congested pair does not restart at full
// throttle and an upgraded pair is lifted to its new floor. Live
// transfers in the pool are resized to the clamped counts immediately
// (remaining shuffle bytes rebalance without waiting for the next
// epoch), and the tc thresholds are recomputed from the new achievable
// bandwidths when throttling is on. Like ApplyPlan it copies the row:
// the caller keeps ownership of the slices it passed.
func (a *Agent) SwapWindow(row PlanRow) {
	if a.conns == nil {
		panic("agent: SwapWindow before ApplyPlan")
	}
	a.copyRow(row)
	for j := range a.conns {
		if j == a.dc {
			continue
		}
		if a.conns[j] < row.MinConns[j] {
			a.conns[j] = row.MinConns[j]
		}
		if a.conns[j] > row.MaxConns[j] {
			a.conns[j] = row.MaxConns[j]
		}
		a.targetBW[j] = math.Min(row.MaxBW[j], math.Max(row.MinBW[j], a.targetBW[j]))
		for _, f := range a.active {
			if !f.Done() && a.sim.DCOf(f.Dst()) == j {
				f.SetConns(a.conns[j])
			}
		}
	}
	if a.cfg.Throttle {
		a.applyThrottles()
	}
}
