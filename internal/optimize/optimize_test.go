package optimize

import (
	"testing"
	"testing/quick"

	"github.com/wanify/wanify/internal/bwmatrix"
)

// paperExample is the worked example of §3.2.1: bw = {1000, 400, 120;
// 380, 1000, 130; 110, 120, 1000}, D = 30.
func paperExample() bwmatrix.Matrix {
	m := bwmatrix.New(3)
	m[0] = []float64{1000, 400, 120}
	m[1] = []float64{380, 1000, 130}
	m[2] = []float64{110, 120, 1000}
	return m
}

// TestInferDCRelationsPaperExample verifies Algorithm 1 against the
// paper's own trace: unique levels {110,120,130,380,400,1000} filter to
// {110, 380, 1000}; closeness 1 for 1000, 2 for {400, 380}, 3 for
// {120, 130, 110}.
func TestInferDCRelationsPaperExample(t *testing.T) {
	rel := inferDCRelations(paperExample(), 30)
	want := [][]int{
		{1, 2, 3},
		{2, 1, 3},
		{3, 3, 1},
	}
	for i := range want {
		for j := range want[i] {
			if rel[i][j] != want[i][j] {
				t.Errorf("DCrel[%d][%d] = %d, want %d", i, j, rel[i][j], want[i][j])
			}
		}
	}
}

// TestInferDCRelationsFloatNoiseStable locks the dedupe fix: two
// predicted values differing by a float artifact (1e-9 Mbps) must form
// ONE bandwidth level, so a noisy copy of the §3.2.1 worked example
// yields the exact closeness matrix of the clean one. Under the old
// exact-equality set, the phantom level sat within D of its twin,
// shifted the reverse-traversal comparisons and could re-index every
// pair.
func TestInferDCRelationsFloatNoiseStable(t *testing.T) {
	clean := inferDCRelations(paperExample(), 30)
	noisy := paperExample()
	noisy[1][0] = 380 + 1e-9 // duplicate 380 an artifact apart
	noisy[2][1] = 120 - 1e-9 // and 120, in the other direction
	got := inferDCRelations(noisy, 30)
	for i := range clean {
		for j := range clean[i] {
			if got[i][j] != clean[i][j] {
				t.Errorf("noisy DCrel[%d][%d] = %d, clean = %d", i, j, got[i][j], clean[i][j])
			}
		}
	}
}

// TestInferDCRelationsPhantomLevel pins the concrete failure mode: with
// levels {100, 100+ε, 130} and D=30, the ε-duplicate sat exactly under
// the legitimate 130 level (130 − (100+ε) < D), so the reverse
// traversal dropped 130 — and then the ε twin — collapsing three levels
// into one. After tolerance dedupe the comparison is 130 − 100 = D and
// the significant level survives.
func TestInferDCRelationsPhantomLevel(t *testing.T) {
	m := bwmatrix.New(3)
	m[0] = []float64{1000, 100, 130}
	m[1] = []float64{100 + 1e-9, 1000, 130}
	m[2] = []float64{130, 130, 1000}
	rel := inferDCRelations(m, 30)
	// Levels must be {100, 130, 1000}: closeness 1 on the diagonal, 2
	// for the 130 links, 3 for the 100 links.
	want := [][]int{
		{1, 3, 2},
		{3, 1, 2},
		{2, 2, 1},
	}
	for i := range want {
		for j := range want[i] {
			if rel[i][j] != want[i][j] {
				t.Errorf("DCrel[%d][%d] = %d, want %d (phantom ε-level dropped the 130 level)",
					i, j, rel[i][j], want[i][j])
			}
		}
	}
}

// TestGlobalOptimizePaperExample verifies Eq. 2–3 against the paper's
// numbers: sumall = 16, M = 8 yields minCons all ones and maxCons
// {_, 6, 8; 6, _, 8; 8, 8, _} off-diagonal (the diagonal is 1 per the
// equation; see DESIGN.md §2 for the worked-example discrepancy).
func TestGlobalOptimizePaperExample(t *testing.T) {
	// GlobalOptimize replaces the diagonal itself, so feed off-diagonal
	// values only.
	pred := paperExample()
	for i := range pred {
		pred[i][i] = 0
	}
	plan := GlobalOptimize(pred, Options{M: 8, D: 30})

	wantMax := [][]int{
		{1, 6, 8},
		{6, 1, 8},
		{8, 8, 1},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if plan.MinConns[i][j] != 1 {
				t.Errorf("minCons[%d][%d] = %d, want 1", i, j, plan.MinConns[i][j])
			}
			if plan.MaxConns[i][j] != wantMax[i][j] {
				t.Errorf("maxCons[%d][%d] = %d, want %d", i, j, plan.MaxConns[i][j], wantMax[i][j])
			}
		}
	}
	// Achievable BWs are bw × cons (rvec = 1): e.g. maxBW[0][2] = 120×8.
	if got, want := plan.MaxBW[0][2], 120.0*8; got != want {
		t.Errorf("maxBW[0][2] = %v, want %v", got, want)
	}
	if got, want := plan.MinBW[0][1], 400.0; got != want {
		t.Errorf("minBW[0][1] = %v, want %v", got, want)
	}
}

// TestGlobalOptimizeFavorsWeakLinks checks the core design property:
// distant DC pairs (lower predicted BW) receive at least as many max
// connections as nearby pairs.
func TestGlobalOptimizeFavorsWeakLinks(t *testing.T) {
	pred := paperExample()
	for i := range pred {
		pred[i][i] = 0
	}
	plan := GlobalOptimize(pred, Options{M: 8, D: 30})
	if plan.MaxConns[0][2] <= plan.MaxConns[0][1] {
		t.Errorf("weak link maxCons %d should exceed strong link %d",
			plan.MaxConns[0][2], plan.MaxConns[0][1])
	}
}

// TestSkewWeightsShiftConnections checks §3.3.1: a data-heavy DC's
// pairs receive proportionally more connections.
func TestSkewWeightsShiftConnections(t *testing.T) {
	pred := paperExample()
	for i := range pred {
		pred[i][i] = 0
	}
	base := GlobalOptimize(pred, Options{M: 8, D: 30})
	skewed := GlobalOptimize(pred, Options{M: 8, D: 30, SkewWeights: []float64{3, 1, 1}})
	// DC0 is data-heavy: its links should not lose connections, and at
	// least one should gain.
	gained := false
	for j := 1; j < 3; j++ {
		if skewed.MaxConns[0][j] < base.MaxConns[0][j] {
			t.Errorf("maxCons[0][%d] dropped from %d to %d despite DC0 skew",
				j, base.MaxConns[0][j], skewed.MaxConns[0][j])
		}
		if skewed.MaxConns[0][j] > base.MaxConns[0][j] {
			gained = true
		}
	}
	if !gained {
		t.Error("skew weights had no effect on DC0's connection counts")
	}
}

// TestRVecScalesBandwidth checks §3.3.3: the refactoring vector scales
// achievable bandwidths but not connection counts.
func TestRVecScalesBandwidth(t *testing.T) {
	pred := paperExample()
	for i := range pred {
		pred[i][i] = 0
	}
	rv := bwmatrix.NewFilled(3, 0.5)
	base := GlobalOptimize(pred, Options{M: 8, D: 30})
	scaled := GlobalOptimize(pred, Options{M: 8, D: 30, RVec: rv})
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if scaled.MaxConns[i][j] != base.MaxConns[i][j] {
				t.Errorf("rvec changed maxCons[%d][%d]", i, j)
			}
			if i != j && scaled.MaxBW[i][j] != 0.5*base.MaxBW[i][j] {
				t.Errorf("maxBW[%d][%d] = %v, want %v", i, j, scaled.MaxBW[i][j], 0.5*base.MaxBW[i][j])
			}
		}
	}
}

// TestPlanInvariants property-checks GlobalOptimize over random
// bandwidth matrices: connection counts stay within [1, 2M], min <= max
// everywhere, and bandwidth targets are non-negative with min <= max.
func TestPlanInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		n := 2 + rng.IntN(7)
		pred := bwmatrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					pred[i][j] = rng.Uniform(20, 2200)
				}
			}
		}
		plan := GlobalOptimize(pred, Options{})
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				minC, maxC := plan.MinConns[i][j], plan.MaxConns[i][j]
				if minC < 1 || maxC < minC || maxC > 2*DefaultM {
					return false
				}
				if plan.MinBW[i][j] < 0 || plan.MaxBW[i][j] < plan.MinBW[i][j] {
					return false
				}
				if i != j && plan.DCRel[i][j] < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestThrottleThresholds checks the §3.2.2 throttle threshold: the mean
// of achievable BWs per source row.
func TestThrottleThresholds(t *testing.T) {
	m := bwmatrix.New(3)
	m[0] = []float64{0, 900, 300}
	m[1] = []float64{800, 0, 400}
	m[2] = []float64{200, 100, 0}
	th := ThrottleThresholds(m)
	want := []float64{600, 600, 150}
	for i := range want {
		if th[i] != want[i] {
			t.Errorf("T[%d] = %v, want %v", i, th[i], want[i])
		}
	}
}

// TestInferDCRelationsEdgeBranches exercises the binary-search interval
// handling: values below the lowest retained level, above the highest,
// and exactly between two levels.
func TestInferDCRelationsEdgeBranches(t *testing.T) {
	// Levels after filtering with D=30: {100, 500, 1000}.
	m := bwmatrix.New(2)
	m[0] = []float64{1000, 50}  // 50 is below the lowest level
	m[1] = []float64{2000, 100} // 2000 is above the highest level
	rel := inferDCRelations(m, 30)
	// L = 5 levels? set = {1000, 50, 2000, 100}; sorted {50,100,1000,2000};
	// filtering: 2000-1000 keep, 1000-100 keep, 100-50=50>=30 keep -> L=4.
	// closeness: 2000 -> 1, 1000 -> 2, 100 -> 3, 50 -> 4.
	if rel[1][0] != 1 {
		t.Errorf("highest value closeness = %d, want 1", rel[1][0])
	}
	if rel[0][0] != 2 || rel[1][1] != 3 || rel[0][1] != 4 {
		t.Errorf("rel = %v", rel)
	}

	// Values removed by the D-filter resolve to their nearest retained
	// level. With D=30: {100, 120, 985, 1000} filters to {100, 985};
	// 1000 (above the top level) joins 985's closeness, 120 joins 100's.
	mid := bwmatrix.New(2)
	mid[0] = []float64{1000, 985}
	mid[1] = []float64{120, 100}
	relMid := inferDCRelations(mid, 30)
	if relMid[0][0] != relMid[0][1] {
		t.Errorf("1000 got closeness %d, 985 got %d — want equal (merged level)", relMid[0][0], relMid[0][1])
	}
	if relMid[1][0] != relMid[1][1] {
		t.Errorf("120 got closeness %d, 100 got %d — want equal (merged level)", relMid[1][0], relMid[1][1])
	}
	if relMid[0][0] != 1 || relMid[1][1] != 2 {
		t.Errorf("rel = %v, want closeness 1 for the high level, 2 for the low", relMid)
	}
}

// TestGlobalOptimizeSingleDC checks the degenerate 1-DC cluster.
func TestGlobalOptimizeSingleDC(t *testing.T) {
	plan := GlobalOptimize(bwmatrix.New(1), Options{})
	if plan.MinConns[0][0] != 1 || plan.MaxConns[0][0] != 1 {
		t.Errorf("1-DC plan conns = %d/%d", plan.MinConns[0][0], plan.MaxConns[0][0])
	}
}
