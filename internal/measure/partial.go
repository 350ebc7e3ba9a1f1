package measure

// Failure-aware gauging, the one way every snapshot is gauged and
// collected. Probe failure is a first-class outcome: a failed probe is
// retried with capped exponential backoff on the substrate clock
// (armRetry appends the replacement as the chain's next segment), and
// collection returns a PartialSnapshot that tags every key Measured,
// Retried or Unmeasurable — never a fabricated zero. The retry policy
// is fixed (the constants below). The re-gauging controller
// (internal/runtime) replans from the pairs measured and fills each
// Unmeasurable one with the last value it measured there; the
// synchronous measurements read it as zero. See DESIGN.md §11.

import (
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/substrate"
)

// The retry policy of every snapshot.
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

// The pair outcomes of a snapshot.
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
	// Retries counts replacement probes started for the pair. It is
	// narrow to sit beside Outcome: a sample is 16 bytes, not 24.
	Retries int32
	// Mbps is the byte-integrated rate over the pair's live probe
	// time (zero when Unmeasurable with no live time).
	Mbps float64
}

// PartialSnapshot is a collected snapshot: a bandwidth matrix over the
// pairs that could be measured, a per-pair outcome tag, the post-probe
// host metrics and the bill.
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
		n += int(x.Retries)
	}
	return n
}

// probeFailed is the snapshot's failure handler, registered on every
// probe it starts: it closes the chain whose live probe has just failed
// at the failure instant and schedules a replacement probe (armRetry)
// after the chain's current backoff, unless the budget is spent. The
// substrate fails probes one at a time, running each handler before it
// marks the next (a VM kill or pair reset fails its flows in start
// order; a probe born failed fires as it is armed, in chain order), so
// exactly one chain has a failed live segment still open: the one whose
// probe fired. A handler of a probe an earlier generation started finds
// none, and does nothing.
func (ps *PendingSnapshot) probeFailed() {
	if ps.finished {
		return
	}
	for i := range ps.chains {
		ch := &ps.chains[i]
		seg := &ch.segs[len(ch.segs)-1]
		if seg.endT >= 0 || !seg.flow.Failed() {
			continue
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
		return
	}
}

// armRetry starts the replacement probe a failure of chain i in
// generation gen scheduled, as the chain's next segment, and arms the
// failure handler on it. The replacement starts only while that
// generation is open — not collected, not begun again — its window has
// not closed, and both endpoints live.
func (ps *PendingSnapshot) armRetry(i int, gen uint64, now float64) {
	if ps.gen != gen || ps.finished || now >= ps.begun+ps.opts.DurationS {
		return
	}
	ch := &ps.chains[i]
	if !ps.sim.VMAlive(ch.src) || !ps.sim.VMAlive(ch.dst) {
		return
	}
	f := ps.sim.StartProbe(ch.src, ch.dst, 1)
	ch.segs = append(ch.segs, probeSeg{
		flow: f, startBytes: f.TransferredBytes(), startT: now, endT: -1,
	})
	f.OnFail(ps.onFail)
}

// Collect tears the snapshot down and returns the tagged sample. It
// must be called exactly once, after the probe duration has elapsed;
// probes keep transferring until Collect stops them, so a later
// collection integrates over the real elapsed time. This is the one
// integration rule: per key, every probe segment contributes its bytes
// over its live time — a segment that began with the snapshot and ran
// to collection over the collection window itself, so a healthy chain
// reads bytes·8/1e6/window exactly — and a probe that died mid-window
// still reports the rate it saw while alive instead of a diluted
// average. Keys with no live time, or whose flows stalled below
// stallMbps (the partition signature), are tagged Unmeasurable and read
// zero.
//
// The result lives in the snapshot's storage: it stays valid until a
// snapshot recycled from this one is collected.
func (ps *PendingSnapshot) Collect() *PartialSnapshot {
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
	ps.teardown(func(ch *chain) {
		s := &out.Samples[ch.pair]
		s.Retries += int32(ch.retries)
		// Time-average within the chain (its segments are the same VM
		// pair re-probed, never concurrent) and sum across chains (the
		// key's distinct VM pairs — association).
		chBytes, chLive := 0.0, 0.0
		for _, seg := range ch.segs {
			live := seg.endT - seg.startT
			switch {
			case seg.endT >= 0:
				s.Outcome = PairRetried
				out.Bill.FailedProbes++
			case seg.startT == ps.begun:
				live = window
			default:
				live = now - seg.startT
			}
			bytes := seg.flow.TransferredBytes() - seg.startBytes
			if !seg.flow.Failed() {
				// Billing convention (see Report.BytesTransferred):
				// fault-terminated probes are excluded from the bill;
				// their live-time rate still feeds the key's reading.
				out.Bill.BytesTransferred += bytes
			}
			if live > 0 {
				chBytes += bytes
				chLive += live
			}
		}
		if chLive > 0 {
			s.Mbps += chBytes * 8 / 1e6 / chLive
		}
	})
	// Walk the keys in order so noise draws attach to them
	// deterministically: one draw per key regardless of outcome keeps
	// the stream aligned across fault schedules for a fixed seed. A key
	// with no live time reads zero, below the stall floor.
	for k, p := range ps.pairs {
		s := &out.Samples[k]
		switch {
		case s.Mbps < stallMbps:
			s.Outcome = PairUnmeasurable
		case s.Retries > 0:
			s.Outcome = PairRetried
		}
		v := noisy(s.Mbps, ps.opts)
		if s.Outcome != PairUnmeasurable {
			s.Mbps = v
			out.BW[p[0]][p[1]] = v
		}
	}
	out.Stats = vmStatsInto(out.Stats, ps.sim)
	return out
}
