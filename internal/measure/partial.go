package measure

// Failure-aware gauging: the hardened counterpart of the snapshot
// primitive. The legacy path (BeginSnapshot + Collect) assumes every
// probe survives its window; a PR-6 fault landing mid-snapshot used to
// freeze a probe's byte count and silently poison the pair average.
// The hardened path instead treats probe failure as a first-class
// outcome: failed probes are retried with capped exponential backoff
// on the substrate clock, and collection returns a PartialSnapshot
// that tags every ordered DC pair Measured, Retried or Unmeasurable
// with a confidence score — never a fabricated zero. The re-gauging
// controller (internal/runtime) fuses these tagged samples with its
// last-known-good belief store; see DESIGN.md §11.

import (
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/substrate"
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

// RetryPolicy governs probe retries in a hardened snapshot. The zero
// value selects the defaults noted per field.
type RetryPolicy struct {
	// MaxRetries is how many replacement probes one VM pair may start
	// after its current probe fails (default 2).
	MaxRetries int
	// BackoffS is the delay before the first retry (default 0.1 s).
	BackoffS float64
	// BackoffMult grows the delay per attempt (default 2).
	BackoffMult float64
	// MaxBackoffS caps the delay (default 1 s — a retry scheduled
	// beyond the probe window would never contribute anyway).
	MaxBackoffS float64
	// StallMbps is the stalled-flow detection floor: a pair whose
	// probes ran but integrated below this rate is tagged
	// Unmeasurable — a partition stalls flows at rate zero without
	// failing them, and a stalled probe measures the fault, not the
	// link (default 0.5 Mbps, half the locked blackout belief).
	StallMbps float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 2
	}
	if p.BackoffS == 0 {
		p.BackoffS = 0.1
	}
	if p.BackoffMult == 0 {
		p.BackoffMult = 2
	}
	if p.MaxBackoffS == 0 {
		p.MaxBackoffS = 1
	}
	if p.StallMbps == 0 {
		p.StallMbps = 0.5
	}
	return p
}

// PairSample is one ordered DC pair's tagged measurement.
type PairSample struct {
	// Outcome classifies the measurement.
	Outcome PairOutcome
	// Mbps is the byte-integrated rate over the pair's live probe
	// time (zero when Unmeasurable with no live time).
	Mbps float64
	// Confidence is the fraction of the probe window the pair was
	// actually observed, in [0, 1]; zero for Unmeasurable pairs.
	Confidence float64
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
	// are zero and must be filled from belief, not trusted.
	BW bwmatrix.Matrix
	// Samples tags every ordered DC pair (key [src, dst]).
	Samples map[[2]int]PairSample
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
	usable := 0
	for _, p := range s.Pairs {
		if s.Samples[p].Outcome != PairUnmeasurable {
			usable++
		}
	}
	return float64(usable) / float64(len(s.Pairs))
}

// Unmeasurable counts the pairs with no usable reading.
func (s *PartialSnapshot) Unmeasurable() int {
	n := 0
	for _, p := range s.Pairs {
		if s.Samples[p].Outcome == PairUnmeasurable {
			n++
		}
	}
	return n
}

// Retries sums the replacement probes across all pairs.
func (s *PartialSnapshot) Retries() int {
	n := 0
	for _, p := range s.Pairs {
		n += s.Samples[p].Retries
	}
	return n
}

// probeChain is one VM pair's probe history within a hardened
// snapshot: the original probe plus any replacement probes retries
// started after failures.
type probeChain struct {
	pair      [2]int // ordered DC pair
	src, dst  substrate.VMID
	segs      []probeSeg
	retries   int
	failed    int  // probes of this chain a fault terminated
	exhausted bool // retry budget spent or endpoint confirmed dead
}

// probeSeg is one probe flow's contribution window.
type probeSeg struct {
	flow       substrate.Flow
	startBytes float64
	startT     float64
	endT       float64 // failure instant; -1 while live
}

// BeginSnapshotHardened starts a failure-aware all-pairs snapshot:
// the same probe layout as BeginSnapshot, but every probe carries a
// failure handler that retries it with capped exponential backoff on
// the substrate clock. Collect the result with CollectPartial once
// the window has elapsed.
func BeginSnapshotHardened(sim substrate.Cluster, opts Options, pol RetryPolicy) *PendingSnapshot {
	ps := BeginSnapshot(sim, opts)
	ps.hardened = true
	ps.policy = pol.withDefaults()
	conns := maxIntOne(opts.Conns)
	for _, pr := range ps.probes {
		ch := &probeChain{
			pair: pr.pair,
			src:  pr.flow.Src(),
			dst:  pr.flow.Dst(),
		}
		ch.segs = append(ch.segs, probeSeg{
			flow: pr.flow, startBytes: pr.start, startT: ps.begun, endT: -1,
		})
		ps.chains = append(ps.chains, ch)
		ps.armRetry(ch, conns)
	}
	// The chains own every probe from here on (Abandon and
	// CollectPartial tear them down); the legacy probe list would
	// double-visit the first segments.
	ps.probes = nil
	return ps
}

// armRetry registers the failure handler on the chain's live probe:
// close the segment at the failure instant and schedule a replacement
// probe after the chain's current backoff, unless the budget is spent
// or the window has closed. A probe born failed (dead endpoint) fires
// the handler immediately, so the first retry is scheduled from
// within BeginSnapshotHardened itself.
func (ps *PendingSnapshot) armRetry(ch *probeChain, conns int) {
	idx := len(ch.segs) - 1
	ch.segs[idx].flow.OnFail(func() {
		if ps.finished || ch.segs[idx].endT >= 0 {
			return
		}
		ch.segs[idx].endT = ps.sim.Now()
		ch.failed++
		if ch.retries >= ps.policy.MaxRetries {
			ch.exhausted = true
			return
		}
		backoff := ps.policy.BackoffS * math.Pow(ps.policy.BackoffMult, float64(ch.retries))
		if backoff > ps.policy.MaxBackoffS {
			backoff = ps.policy.MaxBackoffS
		}
		ch.retries++
		ps.sim.After(backoff, func(now float64) {
			if ps.finished || ch.exhausted {
				return
			}
			if now >= ps.begun+ps.opts.DurationS {
				ch.exhausted = true // window closed; nothing to salvage
				return
			}
			if !ps.sim.VMAlive(ch.src) || !ps.sim.VMAlive(ch.dst) {
				ch.exhausted = true // dead endpoint: the pair is unmeasurable
				return
			}
			f := ps.sim.StartProbe(ch.src, ch.dst, conns)
			ch.segs = append(ch.segs, probeSeg{
				flow: f, startBytes: f.TransferredBytes(), startT: now, endT: -1,
			})
			ps.armRetry(ch, conns)
		})
	})
}

// CollectPartial tears the hardened snapshot down and returns the
// tagged partial sample. Per pair, every probe segment contributes
// its bytes over its live time, so a probe that died mid-window still
// reports the rate it saw while alive instead of a diluted average;
// pairs with no live time — or whose flows stalled below
// RetryPolicy.StallMbps, the partition signature — are tagged
// Unmeasurable and left at zero for the caller's belief fusion.
func (ps *PendingSnapshot) CollectPartial() *PartialSnapshot {
	if !ps.hardened {
		panic("measure: CollectPartial on a legacy snapshot; use Collect")
	}
	if ps.finished {
		panic("measure: PendingSnapshot collected twice")
	}
	window := ps.collectWindow()
	now := ps.sim.Now()
	ps.finished = true

	type pairAgg struct {
		mbps    float64
		liveSum float64 // summed live seconds across chains
		chains  int
		retries int
		failed  int
	}
	agg := make(map[[2]int]*pairAgg, len(ps.pairs))
	for _, p := range ps.pairs {
		agg[p] = &pairAgg{}
	}
	totalBytes := 0.0
	totalFailed := 0
	for _, ch := range ps.chains {
		a := agg[ch.pair]
		a.chains++
		a.retries += ch.retries
		a.failed += ch.failed
		totalFailed += ch.failed
		// Time-average within the chain (its segments are the same VM
		// pair re-probed, never concurrent) and sum across chains (the
		// pair's distinct VM pairs — association, as in Collect).
		chBytes, chLive := 0.0, 0.0
		for i := range ch.segs {
			seg := &ch.segs[i]
			end := seg.endT
			if end < 0 {
				end = now // survived to collection
			}
			bytes := seg.flow.TransferredBytes() - seg.startBytes
			if !seg.flow.Failed() {
				// Billing convention (see Report.BytesTransferred):
				// fault-terminated probes are excluded, exactly as in
				// legacy Collect — their live-time rate still feeds the
				// pair average below, but not the bill.
				totalBytes += bytes
			}
			if live := end - seg.startT; live > 0 {
				chBytes += bytes
				chLive += live
			}
			if !seg.flow.Failed() && !seg.flow.Done() {
				seg.flow.Stop()
			}
		}
		if chLive > 0 {
			a.mbps += chBytes * 8 / 1e6 / chLive
			a.liveSum += chLive
		}
	}
	ps.chains = nil

	n := ps.sim.NumDCs()
	out := &PartialSnapshot{
		BW:      bwmatrix.New(n),
		Samples: make(map[[2]int]PairSample, len(ps.pairs)),
		Pairs:   ps.pairs,
	}
	// Iterate the ordered pair list so noise draws attach to pairs
	// deterministically, exactly as in Collect.
	for _, p := range ps.pairs {
		a := agg[p]
		s := PairSample{Mbps: a.mbps, Retries: a.retries, FailedProbes: a.failed}
		if a.chains > 0 {
			s.Confidence = a.liveSum / (float64(a.chains) * window)
			if s.Confidence > 1 {
				s.Confidence = 1
			}
		}
		switch {
		case a.liveSum <= 0 || a.mbps < ps.policy.StallMbps:
			s.Outcome = PairUnmeasurable
			s.Confidence = 0
		case a.retries > 0 || a.failed > 0:
			s.Outcome = PairRetried
		default:
			s.Outcome = PairMeasured
		}
		// One noise draw per pair regardless of outcome keeps the
		// stream aligned across fault schedules for a fixed seed.
		v := noisy(s.Mbps, ps.opts)
		if s.Outcome != PairUnmeasurable {
			s.Mbps = v
			out.BW[p[0]][p[1]] = v
		}
		out.Samples[p] = s
	}
	out.Stats = vmStats(ps.sim)
	out.Bill = Report{
		ElapsedS:         window,
		BytesTransferred: totalBytes,
		VMSeconds:        window * float64(ps.sim.NumVMs()),
		FailedProbes:     totalFailed,
	}
	return out
}
