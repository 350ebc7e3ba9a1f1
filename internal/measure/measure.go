// Package measure reproduces the paper's bandwidth measurement
// methodology on top of any substrate.Cluster backend:
//
//   - Static-independent probing (§2.2): one DC pair at a time, the way
//     existing GDA systems run iPerf.
//   - Static-simultaneous probing: all DC pairs at once, capturing the
//     contention that actually occurs during shuffle stages.
//   - Snapshots: 1-second all-pairs samples with measurement noise, the
//     cheap input to WANify's prediction model.
//   - Stable runtime measurement: ≥20-second all-pairs averages, the
//     ground truth (and training label).
//   - Monitor: an ifTop-like per-node rate monitor used by local agents.
//
// Every collector keeps its probes in one chain list (chain, below) and
// tears them down the same way; they differ only in the keys the chains
// fold into and in the integration rule (Collect here, CollectPartial
// in partial.go).
//
// All probing consumes simulated time and bytes; Report carries what a
// cost model needs to price the measurement, which is how Table 2's
// monitoring-cost comparison is produced.
package measure

import (
	"fmt"
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// Options configures a measurement run. Every probe is one connection,
// as in all of the paper's measurements; the connection experiments use
// the optimizer instead.
type Options struct {
	// DurationS is how long each probe set runs (seconds). The paper
	// uses 20 s for stable runtime BWs and 1 s for snapshots.
	DurationS float64
	// NoiseSD is the relative standard deviation of multiplicative
	// measurement noise applied to reported values. Snapshots are noisy
	// (0.04 by default for SnapshotOptions); long averages are not.
	NoiseSD float64
	// Rng supplies measurement noise; required when NoiseSD > 0.
	Rng *simrand.Source
}

// StableOptions returns the paper's stable-runtime measurement setup
// (20-second all-pairs run, no reporting noise).
func StableOptions() Options { return Options{DurationS: 20} }

// SnapshotOptions returns the paper's snapshot setup (1-second all-pairs
// run with light measurement noise).
func SnapshotOptions(rng *simrand.Source) Options {
	return Options{DurationS: 1, NoiseSD: 0.04, Rng: rng}
}

// Report describes the resources a measurement consumed, for pricing.
type Report struct {
	// ElapsedS is the simulated wall time the measurement took.
	ElapsedS float64
	// BytesTransferred is the total probe traffic over the WAN. Every
	// collector — legacy and hardened alike — excludes the bytes of
	// fault-terminated probe flows, so bills are comparable across the
	// two paths for the same fault schedule.
	BytesTransferred float64
	// VMSeconds is the aggregate busy VM time (N VMs × elapsed).
	VMSeconds float64
	// FailedProbes counts probe flows a fault terminated mid-window
	// (endpoint death, pair reset, born-failed against a dead VM).
	// Their bytes are excluded from the pair averages — a flow frozen
	// at its failure instant integrated over the full window would
	// read as a fabricated near-zero bandwidth.
	FailedProbes int
}

// Add returns the element-wise sum of two reports.
func (r Report) Add(o Report) Report {
	return Report{
		ElapsedS:         r.ElapsedS + o.ElapsedS,
		BytesTransferred: r.BytesTransferred + o.BytesTransferred,
		VMSeconds:        r.VMSeconds + o.VMSeconds,
		FailedProbes:     r.FailedProbes + o.FailedProbes,
	}
}

// StaticIndependent measures every ordered DC pair one at a time, the
// way Tetrium/Kimchi/Iridium run iPerf (§2.2: "we measured one DC-pair
// BW at a time"): one single-pair probe set per pair, back to back. The
// returned matrix holds the per-pair averages; the diagonal is zero.
func StaticIndependent(sim substrate.Cluster, opts Options) (bwmatrix.Matrix, Report) {
	n := sim.NumDCs()
	out := bwmatrix.New(n)
	var rep Report
	for _, p := range allPairs(n) {
		pair := [][2]int{p}
		ps := beginProbes(sim, opts, n, pair, dcChains(sim, pair))
		sim.RunFor(opts.DurationS)
		sums, r := ps.fold()
		out[p[0]][p[1]] = noisy(sums[0], opts)
		rep = rep.Add(r)
	}
	return out, rep
}

// StaticSimultaneous measures all ordered DC pairs at the same time,
// capturing runtime contention. This is the ground truth the prediction
// model learns to reproduce, and the expensive approach Table 2 prices:
// a Snapshot as long as opts.DurationS, minus the host metrics.
func StaticSimultaneous(sim substrate.Cluster, opts Options) (bwmatrix.Matrix, Report) {
	out, _, rep := Snapshot(sim, opts)
	return out, rep
}

// Snapshot takes a 1-second (or opts.DurationS) all-pairs sample — the
// S_BWij feature of Table 3 — along with the host metrics the
// prediction model consumes. It is the synchronous composition of the
// asynchronous primitive below: begin, drive the clock, collect.
func Snapshot(sim substrate.Cluster, opts Options) (bwmatrix.Matrix, []substrate.VMStats, Report) {
	ps := BeginSnapshot(sim, opts)
	sim.RunFor(opts.DurationS)
	return ps.Collect()
}

// SnapshotByVM takes a short all-pairs sample at VM granularity: one
// probe per ordered VM pair crossing DCs. Multi-VM deployments use this
// for the association path of §3.3.3 — per-VM-pair predictions are
// summed into a DC-level matrix rather than predicting on out-of-range
// aggregate bandwidths. The returned matrix is NumVMs×NumVMs.
func SnapshotByVM(sim substrate.Cluster, opts Options) (bwmatrix.Matrix, []substrate.VMStats, Report) {
	nv := sim.NumVMs()
	var keys [][2]int
	var chains []chain
	for s := 0; s < nv; s++ {
		for d := 0; d < nv; d++ {
			src, dst := substrate.VMID(s), substrate.VMID(d)
			if s != d && sim.DCOf(src) != sim.DCOf(dst) {
				chains = append(chains, chain{pair: len(keys), src: src, dst: dst})
				keys = append(keys, [2]int{s, d})
			}
		}
	}
	ps := beginProbes(sim, opts, nv, keys, chains)
	sim.RunFor(opts.DurationS)
	return ps.Collect()
}

// PendingSnapshot is an in-flight snapshot (all pairs, or the pair
// subset of a static measurement) whose probes run
// concurrently with whatever traffic the cluster is already carrying.
// Snapshot drives the clock itself (RunFor) and so cannot be taken from
// inside a substrate timer callback; the runtime re-gauging controller
// (internal/runtime) instead begins its snapshot from its epoch tick
// (BeginSnapshotHardenedInto), lets the simulation advance on its own
// for Options.DurationS, and then collects it (CollectPartial) — same
// probes, same noise order, no nested clock.
//
// A collected or abandoned all-pairs snapshot can be begun again
// (BeginSnapshotHardenedInto): the pair list, the chains with their
// bound failure handlers, the first-segment slab and the collection
// scratch are reused, so a recurring re-gauge allocates only its probe
// flows. Each begin bumps the snapshot's generation; deferred work of
// an earlier generation (a retry timer, a failure handler of a probe it
// started) finds the generation moved on and does nothing (probeFailed,
// armRetry).
type PendingSnapshot struct {
	sim    substrate.Cluster
	opts   Options
	n      int      // result matrix dimension: DCs, or VMs for SnapshotByVM
	pairs  [][2]int // the keys chains fold into, in noise-draw order
	chains []chain
	first  []probeSeg // every chain's first segment, one slab
	// failFns[i] is chain i's failure handler, bound by the first
	// hardened begin and registered on each of its probes in turn.
	failFns  []func()
	begun    float64
	gen      uint64 // bumped by every begin
	hardened bool   // BeginSnapshotHardenedInto: retries armed, CollectPartial only
	finished bool   // Collect, CollectPartial or Abandon already ran

	// Collection scratch, reused by every collection of the snapshot.
	sums []float64       // fold: per-key rate sums
	live []float64       // CollectPartial: per-key live seconds
	part PartialSnapshot // CollectPartial's result
}

// chain is one probe's history within a snapshot: the ordinal of the
// key it folds into, its VM endpoints and its probe segments. A healthy
// probe is a chain of one segment; only a hardened snapshot's retries
// (armRetry) append more.
type chain struct {
	pair     int
	src, dst substrate.VMID
	segs     []probeSeg
	retries  int // replacement probes scheduled after failures
}

// probeSeg is one probe flow's contribution window.
type probeSeg struct {
	flow       substrate.Flow
	startBytes float64
	startT     float64
	endT       float64 // failure instant (hardened only); -1 while live
}

// BeginSnapshot starts the probe set of an all-pairs snapshot and
// returns a handle to collect it once opts.DurationS of substrate time
// has passed. The probe layout, accumulation order and noise draws
// match Snapshot exactly: on an otherwise idle cluster,
// BeginSnapshot + RunFor + Collect is byte-identical to Snapshot.
func BeginSnapshot(sim substrate.Cluster, opts Options) *PendingSnapshot {
	n := sim.NumDCs()
	pairs := allPairs(n)
	return beginProbes(sim, opts, n, pairs, dcChains(sim, pairs))
}

// recycle returns ps — nil, or a finished snapshot an earlier
// BeginSnapshotHardenedInto on the same cluster returned — ready for
// another all-pairs begin on sim, or a new all-pairs snapshot when ps
// cannot hold one. It panics when ps is still in flight.
func recycle(ps *PendingSnapshot, sim substrate.Cluster) *PendingSnapshot {
	n := sim.NumDCs()
	if ps == nil || ps.n != n || len(ps.pairs) != n*(n-1) {
		pairs := allPairs(n)
		return newPending(sim, n, pairs, dcChains(sim, pairs))
	}
	if !ps.finished {
		panic("measure: snapshot begun again while in flight")
	}
	ps.sim = sim
	return ps
}

// allPairs lists every ordered DC pair in row-major order.
func allPairs(n int) [][2]int {
	pairs := make([][2]int, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

// dcChains lists one chain per VM pair of each ordered DC pair, pair by
// pair, so multi-VM DCs report their combined bandwidth (the paper's
// "association", §3.3.3).
func dcChains(sim substrate.Cluster, pairs [][2]int) []chain {
	n := 0
	for _, p := range pairs {
		n += len(sim.VMsOfDC(p[0])) * len(sim.VMsOfDC(p[1]))
	}
	chains := make([]chain, 0, n)
	for k, p := range pairs {
		for _, src := range sim.VMsOfDC(p[0]) {
			for _, dst := range sim.VMsOfDC(p[1]) {
				chains = append(chains, chain{pair: k, src: src, dst: dst})
			}
		}
	}
	return chains
}

// newPending returns a finished (not yet begun) snapshot that owns the
// given keys and chains.
func newPending(sim substrate.Cluster, n int, pairs [][2]int, chains []chain) *PendingSnapshot {
	return &PendingSnapshot{sim: sim, n: n, pairs: pairs, chains: chains, finished: true}
}

// beginProbes starts the probes of a one-off snapshot over the given
// keys and chains.
func beginProbes(sim substrate.Cluster, opts Options, n int, pairs [][2]int, chains []chain) *PendingSnapshot {
	ps := newPending(sim, n, pairs, chains)
	ps.start(opts)
	return ps
}

// start opens a new generation: every chain's first probe starts, in
// chain order, on the shared first-segment slab (a retry's append
// moves its chain off it), and the retry counts reset.
func (ps *PendingSnapshot) start(opts Options) {
	if opts.DurationS <= 0 {
		panic("measure: non-positive probe duration")
	}
	ps.opts, ps.begun, ps.finished = opts, ps.sim.Now(), false
	ps.gen++
	if len(ps.first) != len(ps.chains) {
		ps.first = make([]probeSeg, len(ps.chains))
	}
	for i := range ps.chains {
		ch := &ps.chains[i]
		f := ps.sim.StartProbe(ch.src, ch.dst, 1)
		ps.first[i] = probeSeg{flow: f, startBytes: f.TransferredBytes(), startT: ps.begun, endT: -1}
		ch.segs, ch.retries = ps.first[i:i+1:i+1], 0
	}
}

// DurationS returns the configured probe duration.
func (ps *PendingSnapshot) DurationS() float64 { return ps.opts.DurationS }

// Abandon tears the probes down without producing a sample (the
// snapshot's owner is shutting down mid-window). Teardown is
// idempotent under faults: probes a VM kill or pair reset already
// terminated are skipped rather than re-Stopped, retry probes the
// hardened path started are torn down with the originals, and a
// second Abandon is a no-op.
func (ps *PendingSnapshot) Abandon() {
	if !ps.finished {
		ps.teardown(nil)
	}
}

// teardown ends the snapshot chain by chain: read (nil when abandoning)
// folds the chain's bytes first, then every probe of it still running
// is stopped. Only a chain's last segment can be running — a retry
// starts after its predecessor failed.
func (ps *PendingSnapshot) teardown(read func(ch *chain)) {
	ps.finished = true
	for i := range ps.chains {
		ch := &ps.chains[i]
		if read != nil {
			read(ch)
		}
		for _, seg := range ch.segs {
			if !seg.flow.Failed() && !seg.flow.Done() {
				seg.flow.Stop()
			}
		}
	}
}

// Collect tears the probes down and returns the sampled bandwidth
// matrix, the post-probe host metrics and the measurement bill. It
// must be called exactly once, after the probe duration has elapsed.
// Probes keep transferring until Collect stops them, so a collection
// later than the configured window integrates over the real elapsed
// time (rates stay honest); collecting at exactly DurationS matches
// Snapshot byte for byte.
func (ps *PendingSnapshot) Collect() (bwmatrix.Matrix, []substrate.VMStats, Report) {
	sums, rep := ps.fold()
	out := bwmatrix.New(ps.n)
	// One noise draw per key in key order, whatever its probes' fate,
	// so the stream does not shift with the fault schedule.
	for k, p := range ps.pairs {
		out[p[0]][p[1]] = noisy(sums[k], ps.opts)
	}
	return out, vmStatsInto(nil, ps.sim), rep
}

// fold is the legacy integration rule: tear the probes down and sum
// each surviving probe's bytes over the window into its key's average
// rate (before reporting noise). A probe a fault terminated mid-window
// contributes nothing — its frozen byte count over the full window
// would fabricate a near-zero reading — and is counted in the bill.
func (ps *PendingSnapshot) fold() ([]float64, Report) {
	if ps.finished {
		panic("measure: PendingSnapshot collected twice")
	}
	if ps.hardened {
		panic("measure: hardened snapshot must be collected with CollectPartial")
	}
	window := ps.collectWindow()
	sums := resize(ps.sums, len(ps.pairs))
	ps.sums = sums
	rep := Report{ElapsedS: window, VMSeconds: window * float64(ps.sim.NumVMs())}
	ps.teardown(func(ch *chain) {
		seg := ch.segs[0]
		if seg.flow.Failed() {
			rep.FailedProbes++
			return
		}
		bytes := seg.flow.TransferredBytes() - seg.startBytes
		rep.BytesTransferred += bytes
		sums[ch.pair] += bytes * 8 / 1e6 / window // Mbps
	})
	return sums, rep
}

// collectWindow returns the window a collection integrates over: the
// substrate time since the probes began. It panics if the configured
// duration has not elapsed yet.
func (ps *PendingSnapshot) collectWindow() float64 {
	// Clock subtraction can land an ulp either side of the configured
	// duration; treat anything within tol as on-time and use the
	// configured duration verbatim so the division is bit-identical to
	// the synchronous path.
	const tol = 1e-9
	elapsed := ps.sim.Now() - ps.begun
	if elapsed < ps.opts.DurationS-tol {
		panic(fmt.Sprintf("measure: snapshot collected after %.2fs of a %.2fs probe window", elapsed, ps.opts.DurationS))
	}
	if math.Abs(elapsed-ps.opts.DurationS) <= tol {
		return ps.opts.DurationS
	}
	return elapsed
}

// vmStatsInto reads the host metrics of every VM, in VM order, into
// dst's storage when it has room.
func vmStatsInto(dst []substrate.VMStats, sim substrate.Cluster) []substrate.VMStats {
	stats := resize(dst, sim.NumVMs())
	for v := range stats {
		stats[v] = sim.VMStats(substrate.VMID(v))
	}
	return stats
}

// resize returns s with length n, zeroed, on s's storage when its
// capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func noisy(v float64, opts Options) float64 {
	if opts.NoiseSD <= 0 {
		return v
	}
	if opts.Rng == nil {
		panic("measure: NoiseSD set without Rng")
	}
	f := 1 + opts.Rng.Norm(0, opts.NoiseSD)
	if f < 0.05 {
		f = 0.05
	}
	return v * f
}

// Monitor is an ifTop-like node-level rate monitor. It observes the
// aggregate rate from one source DC to every destination DC by
// periodically sampling the simulator, and reports windowed averages.
// WANify's WAN Monitor sub-module (§4.1.3) is built on this.
type Monitor struct {
	sim    substrate.Cluster
	srcDC  int
	window int // samples per window

	samples [][]float64 // ring of per-DC rate samples
	next    int
	filled  int
	cancel  func()
}

// NewMonitor starts monitoring the given source DC, sampling every
// sampleEveryS seconds with a window of `window` samples.
func NewMonitor(sim substrate.Cluster, srcDC int, sampleEveryS float64, window int) *Monitor {
	if window < 1 {
		window = 1
	}
	m := &Monitor{sim: sim, srcDC: srcDC, window: window}
	m.samples = make([][]float64, window)
	m.cancel = sim.Every(sampleEveryS, func(now float64) {
		row := make([]float64, sim.NumDCs())
		for d := 0; d < sim.NumDCs(); d++ {
			if d != srcDC {
				row[d] = sim.PairRate(srcDC, d)
			}
		}
		m.samples[m.next] = row
		m.next = (m.next + 1) % m.window
		if m.filled < m.window {
			m.filled++
		}
	})
	return m
}

// Rates returns the windowed average rate (Mbps) from the monitored DC
// to each destination DC. Before any sample exists it returns zeros.
func (m *Monitor) Rates() []float64 {
	n := m.sim.NumDCs()
	out := make([]float64, n)
	if m.filled == 0 {
		return out
	}
	for i := 0; i < m.filled; i++ {
		for d, v := range m.samples[i] {
			out[d] += v
		}
	}
	for d := range out {
		out[d] /= float64(m.filled)
	}
	return out
}

// Close stops the monitor's sampling.
func (m *Monitor) Close() { m.cancel() }

// String describes the monitor.
func (m *Monitor) String() string {
	return fmt.Sprintf("measure.Monitor(srcDC=%d, window=%d)", m.srcDC, m.window)
}
