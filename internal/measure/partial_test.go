package measure

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/wanify/wanify/internal/substrate"
)

// collectUnder begins a snapshot on a fresh frozen sim, applies the
// fault schedule, runs out the window and collects. The
// helper rebuilds everything from the seed so determinism tests can
// compare two complete runs.
func collectUnder(n int, seed uint64, sched substrate.FaultSchedule) *PartialSnapshot {
	sim := frozenSim(n, seed)
	sim.RunFor(5) // settle away from t=0 so fault times are mid-stream
	ps := BeginSnapshotInto(nil, sim, Options{DurationS: 1})
	sched.Apply(sim)
	sim.RunFor(1)
	return ps.Collect()
}

// sampleOf returns the sample of the ordered pair p.
func sampleOf(part *PartialSnapshot, p [2]int) PairSample {
	for k, q := range part.Pairs {
		if q == p {
			return part.Samples[k]
		}
	}
	panic(fmt.Sprintf("pair %v not in the snapshot", p))
}

// TestCollectUnderFaults exercises the three fault kinds inside
// one probe window: a VM kill (pairs lose their endpoint mid-window),
// a pair reset (probe dies, retry succeeds) and a DC partition (probes
// stall at rate zero without failing). Asserts the outcome tags,
// retry counts and coverage arithmetic.
func TestCollectUnderFaults(t *testing.T) {
	// 5 DCs, 1 VM each: VM i lives in DC i. Window is [5, 6).
	sched := substrate.FaultSchedule{
		{Kind: substrate.FaultKillVM, VM: 3, At: 5.3},
		{Kind: substrate.FaultResetPair, SrcDC: 0, DstDC: 1, At: 5.4},
		{Kind: substrate.FaultPartitionDC, DC: 4, At: 5.0, Until: 10},
	}
	part := collectUnder(5, 3, sched)
	// The same window without faults. A pair that kept a reading reads
	// its bytes over its live time: near its fault-free rate, where
	// bytes over the whole window would read that rate diluted by the
	// dead fraction of the window.
	clean := collectUnder(5, 3, nil)
	ratio := func(p [2]int, s PairSample) float64 { return s.Mbps / clean.BW[p[0]][p[1]] }

	if len(part.Pairs) != 20 || len(part.Samples) != 20 {
		t.Fatalf("pairs = %d, samples = %d, want 20 each", len(part.Pairs), len(part.Samples))
	}
	for k, p := range part.Pairs {
		s := part.Samples[k]
		switch {
		case p[0] == 4 || p[1] == 4:
			// Partitioned the whole window: stalled at rate 0, tagged
			// unmeasurable rather than read as a zero-bandwidth link.
			if s.Outcome != PairUnmeasurable {
				t.Errorf("partitioned pair %v = %+v, want Unmeasurable", p, s)
			}
			if part.BW[p[0]][p[1]] != 0 {
				t.Errorf("partitioned pair %v left %.1f Mbps in BW, want 0", p, part.BW[p[0]][p[1]])
			}
		case p[0] == 3 || p[1] == 3:
			// Endpoint killed at 5.3: the 0.3 s before the kill is a
			// usable (low-confidence) reading; the retry found the VM
			// dead and gave up.
			if s.Outcome != PairRetried {
				t.Errorf("killed-endpoint pair %v = %+v, want Retried", p, s)
			}
			// Live 0.3 s of the window, still ramping up: diluted
			// over the window it would read under 0.3× fault-free.
			if r := ratio(p, s); r < 0.45 || r > 1 {
				t.Errorf("killed-endpoint pair %v reads %.2f× its fault-free rate, want within [0.45, 1] (0.3 s live of 1 s)", p, r)
			}
		case p[0] == 0 && p[1] == 1:
			// Reset at 5.4: probe died, backoff 0.1 s, replacement ran
			// out the window. Both segments are live time.
			if s.Outcome != PairRetried || s.Retries == 0 {
				t.Errorf("reset pair %v = %+v, want Retried with retries", p, s)
			}
			// Live 0.9 s of the window: diluted it would read ~0.8×.
			if r := ratio(p, s); r < 0.85 || r > 1 {
				t.Errorf("reset pair %v reads %.2f× its fault-free rate, want within [0.85, 1] (0.4+0.5 s live of 1 s)", p, r)
			}
			// The chain time-averages its segments: the reading must be
			// in the vicinity of the healthy pairs, not doubled by
			// summing two segment rates.
			if healthy := sampleOf(part, [2]int{1, 0}); s.Mbps > 1.6*healthy.Mbps {
				t.Errorf("reset pair %v reads %.0f Mbps vs healthy reverse %.0f — segment rates summed instead of time-averaged?", p, s.Mbps, healthy.Mbps)
			}
		default:
			if s.Outcome != PairMeasured {
				t.Errorf("healthy pair %v = %+v, want Measured", p, s)
			}
		}
	}
	// 8 partitioned pairs out of 20 are unmeasurable.
	if got, want := part.Coverage(), 12.0/20.0; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if part.Unmeasurable() != 8 {
		t.Errorf("unmeasurable = %d, want 8", part.Unmeasurable())
	}
	if part.Retries() == 0 {
		t.Error("no retries recorded across kill + reset faults")
	}
	if part.Bill.FailedProbes == 0 {
		t.Error("bill counted no failed probes")
	}
}

// TestCollectDeterministicPerSeed: a collection under a fault schedule
// is a pure function of the seed.
func TestCollectDeterministicPerSeed(t *testing.T) {
	sched := substrate.FaultSchedule{
		{Kind: substrate.FaultKillVM, VM: 2, At: 5.25},
		{Kind: substrate.FaultResetPair, SrcDC: 0, DstDC: 1, At: 5.5},
	}
	a := collectUnder(4, 11, sched)
	b := collectUnder(4, 11, sched)
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Errorf("samples diverge across identical runs:\n a=%v\n b=%v", a.Samples, b.Samples)
	}
	if !reflect.DeepEqual(a.BW, b.BW) {
		t.Error("BW matrices diverge across identical runs")
	}
	if a.Bill != b.Bill {
		t.Errorf("bills diverge: %+v vs %+v", a.Bill, b.Bill)
	}
}

// TestRetryBudgetExhaustion: a pair reset over and over burns the
// retry budget and the chain gives up instead of probing forever.
func TestRetryBudgetExhaustion(t *testing.T) {
	sim := frozenSim(3, 5)
	sim.RunFor(5)
	ps := BeginSnapshotInto(nil, sim, Options{DurationS: 1})
	// Reset the pair at every instant a probe could be running.
	for _, at := range []float64{5.1, 5.25, 5.5, 5.75, 5.9} {
		sim.ResetPair(0, 1, at)
	}
	sim.RunFor(1)
	part := ps.Collect()
	s := sampleOf(part, [2]int{0, 1})
	if s.Retries != maxRetries {
		t.Errorf("retries = %d, want exactly the budget of %d", s.Retries, maxRetries)
	}
	// Only this pair's probes die, so the bill's count is the pair's.
	if part.Bill.FailedProbes < 3 {
		t.Errorf("failed probes = %d, want original + both retries", part.Bill.FailedProbes)
	}
	// Whatever live slivers it saw, the reverse pair stayed healthy.
	if rev := sampleOf(part, [2]int{1, 0}); rev.Outcome != PairMeasured {
		t.Errorf("reverse pair = %+v, want untouched", rev)
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
