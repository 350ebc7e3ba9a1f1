package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

// TestDeterminism checks that the same (seed, name) pair always yields
// the same stream — the property every experiment's reproducibility
// rests on.
func TestDeterminism(t *testing.T) {
	a := Derive(42, "link/0/1")
	b := Derive(42, "link/0/1")
	for i := 0; i < 100; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("draw %d: %v != %v", i, av, bv)
		}
	}
}

// TestNamedStreamsDiffer checks that differently named children are
// distinct streams.
func TestNamedStreamsDiffer(t *testing.T) {
	a := Derive(42, "alpha")
	b := Derive(42, "beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d identical draws from differently named streams", same)
	}
}

// TestChildDerivation checks that a child stream is deterministic given
// the parent's state.
func TestChildDerivation(t *testing.T) {
	p1 := New(7, 7)
	p2 := New(7, 7)
	c1 := p1.Derive("x")
	c2 := p2.Derive("x")
	for i := 0; i < 10; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("children of identical parents diverged")
		}
	}
}

// TestUniformRange property-checks Uniform's bounds.
func TestUniformRange(t *testing.T) {
	s := Derive(1, "uniform")
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			return true
		}
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNormMoments sanity-checks the normal sampler's mean and SD.
func TestNormMoments(t *testing.T) {
	s := Derive(3, "norm")
	const n = 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean = %.3f, want ~10", mean)
	}
	if math.Abs(sd-2) > 0.1 {
		t.Errorf("sd = %.3f, want ~2", sd)
	}
}

// TestBoolProbability checks Bool's frequency.
func TestBoolProbability(t *testing.T) {
	s := Derive(4, "bool")
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("P(true) = %.3f, want ~0.25", frac)
	}
}

// TestPermIsPermutation checks Perm returns each index exactly once.
func TestPermIsPermutation(t *testing.T) {
	s := Derive(7, "perm")
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// TestExpMean sanity-checks the exponential sampler.
func TestExpMean(t *testing.T) {
	s := Derive(8, "exp")
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.Exp(30)
	}
	if mean := sum / n; math.Abs(mean-30) > 1.5 {
		t.Errorf("exp mean = %.2f, want ~30", mean)
	}
}
