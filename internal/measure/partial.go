package measure

// Failure-aware gauging: the hardened collector over the same chain
// list as the legacy one. The legacy rule (BeginSnapshot + Collect)
// drops a probe a fault terminated; the hardened path instead treats
// probe failure as a first-class outcome: a failed probe is retried
// with capped exponential backoff on the substrate clock (armRetry
// appends the replacement as the chain's next segment), and collection
// returns a PartialSnapshot that tags every ordered DC pair Measured,
// Retried or Unmeasurable — never a fabricated zero. The retry policy
// is fixed (the constants below). The re-gauging controller
// (internal/runtime) replans from the pairs measured and fills each
// Unmeasurable one with the last value it measured there; see
// DESIGN.md §11.

import (
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/substrate"
)

// The retry policy of a hardened snapshot.
const (
	// maxRetries is how many replacement probes one VM pair may start
	// after its current probe fails.
	maxRetries = 2
	// The delay before a retry starts at retryBackoffS and grows by
	// retryBackoffMult per attempt, capped at maxRetryBackoffS: a retry
	// scheduled beyond the probe window would never contribute anyway.
	retryBackoffS    = 0.1
	retryBackoffMult = 2
	maxRetryBackoffS = 1
	// stallMbps is the stalled-flow floor: a pair whose probes ran but
	// integrated below it is Unmeasurable — a partition stalls flows at
	// rate zero without failing them, and a stalled probe measures the
	// fault, not the link (half the locked 1 Mbps blackout belief).
	stallMbps = 0.5
)

// PairOutcome classifies how one ordered DC pair's measurement went.
type PairOutcome int8

// The pair outcomes of a hardened snapshot.
const (
	// PairMeasured: every probe of the pair survived the full window.
	PairMeasured PairOutcome = iota
	// PairRetried: at least one probe failed but retries (or surviving
	// sibling probes) still produced a usable reading.
	PairRetried
	// PairUnmeasurable: the pair produced no usable reading — probes
	// kept dying past the retry budget, an endpoint is dead, or the
	// flows stalled at blackout rates (a partition holds the pair).
	PairUnmeasurable
)

// String names the outcome.
func (o PairOutcome) String() string {
	switch o {
	case PairRetried:
		return "retried"
	case PairUnmeasurable:
		return "unmeasurable"
	default:
		return "measured"
	}
}

// PairSample is one ordered DC pair's tagged measurement.
type PairSample struct {
	// Outcome classifies the measurement.
	Outcome PairOutcome
	// Mbps is the byte-integrated rate over the pair's live probe
	// time (zero when Unmeasurable with no live time).
	Mbps float64
	// Retries counts replacement probes started for the pair.
	Retries int
	// FailedProbes counts probe flows of the pair a fault terminated.
	FailedProbes int
}

// PartialSnapshot is the hardened snapshot's result: a bandwidth
// matrix over the pairs that could be measured, a per-pair outcome
// tag, and the host metrics and bill of the legacy snapshot.
type PartialSnapshot struct {
	// BW holds the measured rates (noise applied); Unmeasurable pairs
	// are zero and must be filled, not trusted.
	BW bwmatrix.Matrix
	// Samples tags every ordered DC pair; Samples[k] is Pairs[k]'s.
	Samples []PairSample
	// Pairs lists the ordered DC pairs in deterministic order.
	Pairs [][2]int
	// Stats are the post-probe host metrics.
	Stats []substrate.VMStats
	// Bill prices the measurement (retry probes included).
	Bill Report
}

// Coverage is the fraction of ordered pairs with a usable reading
// (Measured or Retried). 1.0 on a healthy cluster.
func (s *PartialSnapshot) Coverage() float64 {
	if len(s.Pairs) == 0 {
		return 1
	}
	return float64(len(s.Pairs)-s.Unmeasurable()) / float64(len(s.Pairs))
}

// Unmeasurable counts the pairs with no usable reading.
func (s *PartialSnapshot) Unmeasurable() int {
	n := 0
	for _, x := range s.Samples {
		if x.Outcome == PairUnmeasurable {
			n++
		}
	}
	return n
}

// Retries sums the replacement probes across all pairs.
func (s *PartialSnapshot) Retries() int {
	n := 0
	for _, x := range s.Samples {
		n += x.Retries
	}
	return n
}

// BeginSnapshotHardenedInto starts a failure-aware all-pairs snapshot
// over the storage of ps, recycled as in BeginSnapshotInto (nil: a new
// snapshot): the same probes as BeginSnapshot, every one of them
// started before any failure handler is armed; each handler retries
// its chain with capped exponential backoff on the substrate clock. A
// recycled chain keeps the failure handler bound at the snapshot's
// first hardened begin. Collect the result with CollectPartial once
// the window has elapsed.
func BeginSnapshotHardenedInto(ps *PendingSnapshot, sim substrate.Cluster, opts Options) *PendingSnapshot {
	ps = recycle(ps, sim)
	ps.hardened = true
	ps.start(opts)
	ps.bindFailFns()
	for i := range ps.chains {
		ps.chains[i].segs[0].flow.OnFail(ps.failFns[i])
	}
	return ps
}

// bindFailFns binds every chain's failure handler, once per snapshot.
func (ps *PendingSnapshot) bindFailFns() {
	if ps.failFns != nil {
		return
	}
	ps.failFns = make([]func(), len(ps.chains))
	for i := range ps.chains {
		ps.failFns[i] = func() { ps.probeFailed(i) }
	}
}

// probeFailed is chain i's failure handler, registered on each of its
// probes in turn: close the live segment at the failure instant and
// schedule a replacement probe (armRetry) after the chain's current
// backoff, unless the budget is spent. It acts only on the failure of
// the chain's live probe in the current generation — a handler of a
// probe an earlier generation started finds a live segment whose flow
// has not failed, or is already closed, and does nothing. A probe born
// failed (dead endpoint) fires the handler as it is registered, so the
// first retry is scheduled from within BeginSnapshotHardenedInto itself.
func (ps *PendingSnapshot) probeFailed(i int) {
	ch := &ps.chains[i]
	seg := &ch.segs[len(ch.segs)-1]
	if ps.finished || seg.endT >= 0 || !seg.flow.Failed() {
		return
	}
	seg.endT = ps.sim.Now()
	if ch.retries >= maxRetries {
		return
	}
	backoff := retryBackoffS * math.Pow(retryBackoffMult, float64(ch.retries))
	if backoff > maxRetryBackoffS {
		backoff = maxRetryBackoffS
	}
	ch.retries++
	gen := ps.gen
	ps.sim.After(backoff, func(now float64) { ps.armRetry(i, gen, now) })
}

// armRetry starts the replacement probe a failure of chain i in
// generation gen scheduled, as the chain's next segment, and arms the
// chain's failure handler on it. The replacement starts only while
// that generation is open — not collected, not begun again — its
// window has not closed, and both endpoints live.
func (ps *PendingSnapshot) armRetry(i int, gen uint64, now float64) {
	ch := &ps.chains[i]
	if ps.gen != gen || ps.finished || now >= ps.begun+ps.opts.DurationS ||
		!ps.sim.VMAlive(ch.src) || !ps.sim.VMAlive(ch.dst) {
		return
	}
	f := ps.sim.StartProbe(ch.src, ch.dst, 1)
	ch.segs = append(ch.segs, probeSeg{
		flow: f, startBytes: f.TransferredBytes(), startT: now, endT: -1,
	})
	f.OnFail(ps.failFns[i])
}

// CollectPartial tears the hardened snapshot down and returns the
// tagged partial sample. This is the hardened integration rule: per
// pair, every probe segment contributes its bytes over its live time,
// so a probe that died mid-window still reports the rate it saw while
// alive instead of a diluted average; pairs with no live time — or
// whose flows stalled below stallMbps, the partition signature — are
// tagged Unmeasurable and left at zero for the caller to fill.
//
// The result lives in the snapshot's storage: it stays valid until a
// snapshot recycled from this one is collected.
func (ps *PendingSnapshot) CollectPartial() *PartialSnapshot {
	if !ps.hardened {
		panic("measure: CollectPartial on a legacy snapshot; use Collect")
	}
	if ps.finished {
		panic("measure: PendingSnapshot collected twice")
	}
	window := ps.collectWindow()
	now := ps.sim.Now()
	out := &ps.part
	if out.BW.N() != ps.n {
		out.BW = bwmatrix.New(ps.n)
	} else {
		for _, row := range out.BW {
			clear(row)
		}
	}
	out.Samples = resize(out.Samples, len(ps.pairs))
	out.Pairs = ps.pairs
	out.Bill = Report{ElapsedS: window, VMSeconds: window * float64(ps.sim.NumVMs())}
	live := resize(ps.live, len(ps.pairs))
	ps.live = live
	ps.teardown(func(ch *chain) {
		s := &out.Samples[ch.pair]
		s.Retries += ch.retries
		// Time-average within the chain (its segments are the same VM
		// pair re-probed, never concurrent) and sum across chains (the
		// pair's distinct VM pairs — association, as in Collect).
		chBytes, chLive := 0.0, 0.0
		for _, seg := range ch.segs {
			end := seg.endT
			if end < 0 {
				end = now // survived to collection
			} else {
				s.FailedProbes++
				out.Bill.FailedProbes++
			}
			bytes := seg.flow.TransferredBytes() - seg.startBytes
			if !seg.flow.Failed() {
				// Billing convention (see Report.BytesTransferred):
				// fault-terminated probes are excluded, exactly as in
				// Collect — their live-time rate still feeds the pair
				// average below, but not the bill.
				out.Bill.BytesTransferred += bytes
			}
			if d := end - seg.startT; d > 0 {
				chBytes += bytes
				chLive += d
			}
		}
		if chLive > 0 {
			s.Mbps += chBytes * 8 / 1e6 / chLive
			live[ch.pair] += chLive
		}
	})
	// Walk the ordered pair list so noise draws attach to pairs
	// deterministically, exactly as in Collect.
	for k, p := range ps.pairs {
		s := &out.Samples[k]
		switch {
		case live[k] <= 0 || s.Mbps < stallMbps:
			s.Outcome = PairUnmeasurable
		case s.Retries > 0 || s.FailedProbes > 0:
			s.Outcome = PairRetried
		}
		// One noise draw per pair regardless of outcome keeps the
		// stream aligned across fault schedules for a fixed seed.
		v := noisy(s.Mbps, ps.opts)
		if s.Outcome != PairUnmeasurable {
			s.Mbps = v
			out.BW[p[0]][p[1]] = v
		}
	}
	out.Stats = vmStatsInto(out.Stats, ps.sim)
	return out
}
