package optimize

import (
	"fmt"
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
)

// ShareMode selects how a global plan's per-pair connection windows and
// achievable-BW targets split across concurrent jobs sharing the
// cluster. The WAN the paper gauges is shared infrastructure — the
// whole reason achievable bandwidth shifts at runtime — so when the
// sharing tenants are *our own* jobs, the global optimizer's windows
// become a budget to divide rather than a window each job may fill.
type ShareMode int

// Sharing policies.
const (
	// ShareFair splits every pair's window evenly across jobs.
	ShareFair ShareMode = iota
	// SharePriority splits windows proportional to static per-job
	// priorities (higher priority, more connections).
	SharePriority
	// ShareRemaining splits windows proportional to each job's
	// remaining bytes, so almost-done jobs release capacity to the
	// jobs that still need it (shortest-remaining-first in spirit).
	ShareRemaining
)

// String names the mode (the -share flag values of cmd/wanify-sim).
func (m ShareMode) String() string {
	switch m {
	case SharePriority:
		return "priority"
	case ShareRemaining:
		return "remaining"
	default:
		return "fair"
	}
}

// ParseShareMode resolves a -share flag value.
func ParseShareMode(s string) (ShareMode, error) {
	switch s {
	case "", "fair":
		return ShareFair, nil
	case "priority":
		return SharePriority, nil
	case "remaining":
		return ShareRemaining, nil
	default:
		return ShareFair, fmt.Errorf("optimize: unknown share mode %q (want fair, priority or remaining)", s)
	}
}

// ShareWeights turns a mode plus per-job attributes into the positive
// weight vector PartitionPlan consumes. priorities and remainingBytes
// may be nil (or degenerate: all zero), in which case the split is
// even; jobs with zero remaining bytes under ShareRemaining keep a
// vanishing weight rather than zero so the largest-remainder split
// still hands them slots only when every needy job is served.
func ShareWeights(mode ShareMode, jobs int, priorities, remainingBytes []float64) []float64 {
	return ShareWeightsInto(nil, mode, jobs, priorities, remainingBytes)
}

// ShareWeightsInto is ShareWeights into dst, reused when its capacity
// covers jobs (nil allocates): a deployment re-weighs its slots at
// every admission and release.
func ShareWeightsInto(dst []float64, mode ShareMode, jobs int, priorities, remainingBytes []float64) []float64 {
	if cap(dst) < jobs {
		dst = make([]float64, jobs)
	}
	w := dst[:jobs]
	for i := range w {
		w[i] = 1
	}
	var src []float64
	switch mode {
	case SharePriority:
		src = priorities
	case ShareRemaining:
		src = remainingBytes
	}
	if len(src) != jobs {
		return w
	}
	total := 0.0
	for _, v := range src {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return w
	}
	for i, v := range src {
		w[i] = math.Max(v, total*1e-9)
	}
	return w
}

// splitProportionalInto divides total integer units across positive
// weights using the largest-remainder method: shares sum exactly to
// total, and ties break toward the lowest index so the split is
// deterministic. Non-positive weights receive units only after every
// positive weight's remainder is exhausted. out receives the shares
// (every entry rewritten), rem holds the fractional remainders; both
// are len(weights).
func splitProportionalInto(out []int, rem []float64, total int, weights []float64) {
	k := len(weights)
	if k == 0 || total <= 0 {
		clear(out)
		return
	}
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 {
		// Degenerate: behave as an even split.
		for i := range out {
			out[i] = total / k
			if i < total%k {
				out[i]++
			}
		}
		return
	}
	given := 0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		exact := float64(total) * w / sum
		out[i] = int(math.Floor(exact))
		rem[i] = exact - float64(out[i])
		given += out[i]
	}
	for given < total {
		best := -1
		for i := 0; i < k; i++ {
			if best == -1 || rem[i] > rem[best]+1e-12 {
				best = i
			}
		}
		out[best]++
		rem[best] = -1 // each job gets at most one remainder unit per lap
		given++
	}
}

// PartitionPlan splits a global plan into one plan per job, weighted by
// the given (positive) shares — the §3.3 association idea turned
// job-wise: the DC pair's [minCons, maxCons] window and achievable-BW
// targets are a cluster-level budget, and each concurrent job receives
// the slice its weight earns. Invariants (locked by partition_test.go):
//
//   - per pair, the jobs' MaxConns sum to exactly the global MaxConns
//     (and MinConns to at most the global MinConns), so concurrent
//     jobs can never oversubscribe the window the optimizer derived;
//   - per pair, the jobs' achievable-BW targets sum to the global
//     targets (same per-connection bandwidth, Eq. 3 linearity);
//   - every job's MinConns ≤ MaxConns, with spare slots going to the
//     lowest-index (highest-weight-first on ties) jobs.
//
// A job whose share of a pair rounds to zero connections gets a zero
// window there: its transfers still open one physical connection (the
// agents' ConnsTo floor), but its AIMD targets stay at the floor so it
// yields the pair to the jobs that own the budget.
func PartitionPlan(plan Plan, shares []float64) []Plan {
	return PartitionPlanInto(nil, plan, shares)
}

// partitionStackJobs is the job count up to which PartitionPlanInto
// splits on stack scratch.
const partitionStackJobs = 8

// PartitionPlanInto is PartitionPlan with a caller-owned result: dst —
// nil, or an earlier result of this function — is reused when it holds
// len(shares) plans of plan's dimension and replaced otherwise. Every
// entry of the four window matrices is rewritten on every call, so the
// result is bit-identical to PartitionPlan's whatever dst held; DCRel
// aliases plan's, as there. The result is valid until the next call
// with the same dst: a deployment that re-partitions at every admission,
// release and replan keeps one dst and allocates nothing.
func PartitionPlanInto(dst []Plan, plan Plan, shares []float64) []Plan {
	jobs := len(shares)
	if jobs == 0 {
		return nil
	}
	n := len(plan.MinConns)
	reuse := len(dst) == jobs
	for g := 0; reuse && g < jobs; g++ {
		reuse = dst[g].MinConns.N() == n && dst[g].MaxConns.N() == n &&
			dst[g].MinBW.N() == n && dst[g].MaxBW.N() == n
	}
	if !reuse {
		dst = make([]Plan, jobs)
		for g := range dst {
			dst[g] = Plan{
				MinConns: bwmatrix.NewConn(n),
				MaxConns: bwmatrix.NewConn(n),
				MinBW:    bwmatrix.New(n),
				MaxBW:    bwmatrix.New(n),
			}
		}
	}
	for g := range dst {
		dst[g].DCRel = plan.DCRel
	}
	var intBuf [2 * partitionStackJobs]int
	var remBuf [partitionStackJobs]float64
	ints, rem := intBuf[:], remBuf[:]
	if jobs > partitionStackJobs {
		ints, rem = make([]int, 2*jobs), make([]float64, jobs)
	}
	minParts, maxParts, rem := ints[:jobs], ints[jobs:2*jobs], rem[:jobs]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				// Intra-DC slots are not a WAN budget; every job keeps
				// the conventional single connection.
				for g := range dst {
					dst[g].MinConns[i][j] = plan.MinConns[i][j]
					dst[g].MaxConns[i][j] = plan.MaxConns[i][j]
					dst[g].MinBW[i][j], dst[g].MaxBW[i][j] = 0, 0
				}
				continue
			}
			minC, maxC := plan.MinConns[i][j], plan.MaxConns[i][j]
			splitProportionalInto(minParts, rem, minC, shares)
			splitProportionalInto(maxParts, rem, maxC, shares)
			// Per-connection achievable bandwidth (Eq. 3 is linear in the
			// connection count, so the global targets recover by scaling).
			perConnMin, perConnMax := 0.0, 0.0
			if minC > 0 {
				perConnMin = plan.MinBW[i][j] / float64(minC)
			}
			if maxC > 0 {
				perConnMax = plan.MaxBW[i][j] / float64(maxC)
			}
			for g := range dst {
				lo, hi := minParts[g], maxParts[g]
				if lo > hi {
					// Rounding can hand a job its min slot on a pair where
					// its max share rounded lower; the window stays
					// consistent by ceding the min slot (the sum-cap
					// invariant binds on MaxConns).
					lo = hi
				}
				dst[g].MinConns[i][j] = lo
				dst[g].MaxConns[i][j] = hi
				dst[g].MinBW[i][j] = perConnMin * float64(lo)
				dst[g].MaxBW[i][j] = perConnMax * float64(hi)
			}
		}
	}
	return dst
}
