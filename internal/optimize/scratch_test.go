package optimize

import (
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/simrand"
)

// randomPred builds a prediction matrix with clustered bandwidth
// levels, exact ties and near-ties around the D threshold — the inputs
// relation inference is sensitive to.
func randomPred(n int, seed uint64) bwmatrix.Matrix {
	rng := simrand.Derive(seed, "opt-scratch")
	levels := []float64{80, 250, 600, 1100}
	m := bwmatrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			base := levels[rng.IntN(len(levels))]
			switch rng.IntN(4) {
			case 0:
				m[i][j] = base // exact tie
			case 1:
				m[i][j] = base + 1e-9 // sub-epsilon duplicate
			case 2:
				m[i][j] = base + DefaultD*0.9 // inside the D filter
			default:
				m[i][j] = base + rng.Uniform(-20, 20)
			}
		}
	}
	return m
}

// requirePlansEqual compares two plans entry for entry (bit-exact).
func requirePlansEqual(t *testing.T, a, b Plan, label string) {
	t.Helper()
	n := len(a.DCRel)
	if len(b.DCRel) != n {
		t.Fatalf("%s: DCRel size %d vs %d", label, n, len(b.DCRel))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.DCRel[i][j] != b.DCRel[i][j] {
				t.Fatalf("%s: DCRel[%d][%d] %d vs %d", label, i, j, a.DCRel[i][j], b.DCRel[i][j])
			}
			if a.MinConns[i][j] != b.MinConns[i][j] || a.MaxConns[i][j] != b.MaxConns[i][j] {
				t.Fatalf("%s: conns[%d][%d] (%d,%d) vs (%d,%d)", label, i, j,
					a.MinConns[i][j], a.MaxConns[i][j], b.MinConns[i][j], b.MaxConns[i][j])
			}
			if a.MinBW[i][j] != b.MinBW[i][j] || a.MaxBW[i][j] != b.MaxBW[i][j] {
				t.Fatalf("%s: BW[%d][%d] (%v,%v) vs (%v,%v)", label, i, j,
					a.MinBW[i][j], a.MaxBW[i][j], b.MinBW[i][j], b.MaxBW[i][j])
			}
		}
	}
}

// TestGlobalOptimizeIntoMatchesPlain locks the scratch path's outputs
// against the allocating path across sizes, options and reuse: a dirty
// reused dst from a different problem must not leak into the result.
func TestGlobalOptimizeIntoMatchesPlain(t *testing.T) {
	var s Scratch
	var reused Plan
	for n := 2; n <= 8; n++ {
		for trial := 0; trial < 4; trial++ {
			pred := randomPred(n, uint64(n*10+trial))
			opts := Options{}
			if trial%2 == 1 {
				ws := make([]float64, n)
				for i := range ws {
					ws[i] = float64(i + 1)
				}
				opts.SkewWeights = ws
			}
			if trial%3 == 2 {
				opts.RVec = bwmatrix.NewFilled(n, 0.95)
			}
			want := GlobalOptimize(pred, opts)
			GlobalOptimizeInto(&reused, pred, opts, &s)
			requirePlansEqual(t, reused, want, "into-vs-plain")

			rel := InferDCRelationsInto(nil, pred, DefaultD, &s)
			relPlain := inferDCRelations(pred, DefaultD)
			for i := range rel {
				for j := range rel[i] {
					if rel[i][j] != relPlain[i][j] {
						t.Fatalf("n=%d trial=%d: InferDCRelationsInto[%d][%d] %d vs %d",
							n, trial, i, j, rel[i][j], relPlain[i][j])
					}
				}
			}
		}
	}
}

// TestGlobalOptimizeIntoSteadyStateAllocs checks the replan hot path
// reaches zero allocations once dst and scratch are warm.
func TestGlobalOptimizeIntoSteadyStateAllocs(t *testing.T) {
	pred := randomPred(8, 3)
	var s Scratch
	var dst Plan
	GlobalOptimizeInto(&dst, pred, Options{}, &s) // warm
	avg := testing.AllocsPerRun(50, func() {
		GlobalOptimizeInto(&dst, pred, Options{}, &s)
	})
	if avg != 0 {
		t.Fatalf("GlobalOptimizeInto allocates %.1f times per warm call, want 0", avg)
	}
}

// partitionReference is PartitionPlan written over the exported
// SplitProportional — fresh scratch for every split, fresh matrices for
// every job — the oracle the reusing path is held to.
func partitionReference(plan Plan, shares []float64) []Plan {
	n := len(plan.MinConns)
	parts := make([]Plan, len(shares))
	for g := range parts {
		parts[g] = Plan{
			DCRel:    plan.DCRel,
			MinConns: bwmatrix.NewConn(n),
			MaxConns: bwmatrix.NewConn(n),
			MinBW:    bwmatrix.New(n),
			MaxBW:    bwmatrix.New(n),
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			minC, maxC := plan.MinConns[i][j], plan.MaxConns[i][j]
			if i == j {
				for g := range parts {
					parts[g].MinConns[i][j], parts[g].MaxConns[i][j] = minC, maxC
				}
				continue
			}
			minParts, maxParts := splitProportional(minC, shares), splitProportional(maxC, shares)
			perConnMin, perConnMax := 0.0, 0.0
			if minC > 0 {
				perConnMin = plan.MinBW[i][j] / float64(minC)
			}
			if maxC > 0 {
				perConnMax = plan.MaxBW[i][j] / float64(maxC)
			}
			for g := range parts {
				lo, hi := minParts[g], maxParts[g]
				if lo > hi {
					lo = hi
				}
				parts[g].MinConns[i][j], parts[g].MaxConns[i][j] = lo, hi
				parts[g].MinBW[i][j] = perConnMin * float64(lo)
				parts[g].MaxBW[i][j] = perConnMax * float64(hi)
			}
		}
	}
	return parts
}

// TestPartitionPlanIntoMatchesFresh reuses ONE dst across plans of
// changing dimension, job counts on both sides of the stack-scratch
// limit, zero and tiny weights and a dead DC's zeroed rows: whatever
// the dst held, the result equals the reference, and a dst of the
// wrong shape is replaced rather than written through.
func TestPartitionPlanIntoMatchesFresh(t *testing.T) {
	rng := simrand.Derive(23, "partition-into")
	var dst []Plan
	prevN, prevJobs := 0, 0
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.IntN(5)
		jobs := 1 + rng.IntN(4)
		if trial%7 == 3 {
			jobs = partitionStackJobs + 1 + rng.IntN(4)
		}
		if trial%3 != 0 && prevN != 0 {
			n, jobs = prevN, prevJobs // steady state: the reuse path
		}
		pred := randomPred(n, uint64(trial))
		if trial%5 == 4 {
			dead := rng.IntN(n)
			for j := 0; j < n; j++ {
				pred[dead][j], pred[j][dead] = 0, 0
			}
		}
		plan := GlobalOptimize(pred, Options{M: 2 + rng.IntN(7)})
		shares := make([]float64, jobs)
		for g := range shares {
			switch rng.IntN(4) {
			case 0:
				shares[g] = 0 // a free slot
			case 1:
				shares[g] = 1e-9
			default:
				shares[g] = rng.Uniform(0.1, 10)
			}
		}

		// What the old dst's matrices hold, to prove a replaced dst is
		// left alone.
		var held []Plan
		for _, p := range dst {
			held = append(held, Plan{DCRel: p.DCRel, MinConns: p.MinConns.Clone(),
				MaxConns: p.MaxConns.Clone(), MinBW: p.MinBW.Clone(), MaxBW: p.MaxBW.Clone()})
		}
		old := dst
		dst = PartitionPlanInto(dst, plan, shares)
		want := partitionReference(plan, shares)
		fresh := PartitionPlan(plan, shares)
		if len(dst) != jobs || len(fresh) != jobs {
			t.Fatalf("trial %d: %d reused / %d fresh parts for %d jobs", trial, len(dst), len(fresh), jobs)
		}
		for g := range want {
			requirePlansEqual(t, dst[g], want[g], "reused-vs-reference")
			requirePlansEqual(t, fresh[g], want[g], "fresh-vs-reference")
		}
		reused := len(old) > 0 && len(dst) > 0 && &old[0] == &dst[0]
		if sameShape := prevN == n && prevJobs == jobs; reused != sameShape {
			t.Fatalf("trial %d: dst reused = %v with shape (%d DCs, %d jobs) after (%d, %d)",
				trial, reused, n, jobs, prevN, prevJobs)
		}
		if !reused {
			for g := range old {
				requirePlansEqual(t, old[g], held[g], "replaced dst written through")
			}
		}
		prevN, prevJobs = n, jobs
	}
}

// TestPartitionPlanIntoSteadyStateAllocs: a warm dst of the right
// shape costs a re-partition nothing.
func TestPartitionPlanIntoSteadyStateAllocs(t *testing.T) {
	plan := GlobalOptimize(randomPred(4, 3), Options{})
	shares := []float64{1, 0, 2.5, 1}
	dst := PartitionPlanInto(nil, plan, shares)
	if avg := testing.AllocsPerRun(50, func() {
		dst = PartitionPlanInto(dst, plan, shares)
	}); avg != 0 {
		t.Fatalf("PartitionPlanInto allocates %.1f times per warm call, want 0", avg)
	}
	var w []float64
	w = ShareWeightsInto(w, SharePriority, 4, shares, nil)
	if avg := testing.AllocsPerRun(50, func() {
		w = ShareWeightsInto(w, SharePriority, 4, shares, nil)
	}); avg != 0 {
		t.Fatalf("ShareWeightsInto allocates %.1f times per warm call, want 0", avg)
	}
}
