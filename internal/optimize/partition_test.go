package optimize

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
)

func TestSplitProportionalConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(5)
		total := rng.Intn(20)
		w := make([]float64, k)
		for i := range w {
			w[i] = rng.Float64() * 10
		}
		parts := splitProportional(total, w)
		sum := 0
		for _, p := range parts {
			if p < 0 {
				t.Fatalf("negative share %v for total=%d weights=%v", parts, total, w)
			}
			sum += p
		}
		if sum != total {
			t.Fatalf("shares %v sum to %d, want %d (weights %v)", parts, sum, total, w)
		}
	}
}

func TestSplitProportionalDeterministicTies(t *testing.T) {
	a := splitProportional(3, []float64{1, 1})
	if a[0] != 2 || a[1] != 1 {
		t.Fatalf("tie should break toward the lowest index, got %v", a)
	}
	b := splitProportional(1, []float64{1, 1, 1})
	if b[0] != 1 || b[1] != 0 || b[2] != 0 {
		t.Fatalf("single slot should land on job 0, got %v", b)
	}
}

func TestSplitProportionalDegenerateWeights(t *testing.T) {
	got := splitProportional(5, []float64{0, 0, 0})
	if got[0]+got[1]+got[2] != 5 {
		t.Fatalf("zero weights should fall back to an even split, got %v", got)
	}
}

// randomPlan builds a structurally valid plan over n DCs.
func randomPlan(n int, m int, rng *rand.Rand) Plan {
	pred := bwmatrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				pred[i][j] = 50 + rng.Float64()*900
			}
		}
	}
	return GlobalOptimize(pred, Options{M: m})
}

// TestPartitionPlanInvariants is the multi-tenant safety property the
// issue demands: per-pair connection windows partitioned across jobs
// never exceed the global window, and the achievable-BW targets sum
// back to the global targets.
func TestPartitionPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(5)
		plan := randomPlan(n, 2+rng.Intn(7), rng)
		jobs := 1 + rng.Intn(4)
		w := make([]float64, jobs)
		for g := range w {
			w[g] = 0.2 + rng.Float64()*5
		}
		parts := PartitionPlan(plan, w)
		if len(parts) != jobs {
			t.Fatalf("got %d parts for %d jobs", len(parts), jobs)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				sumMin, sumMax := 0, 0
				sumMinBW, sumMaxBW := 0.0, 0.0
				for g := range parts {
					p := parts[g]
					if p.MinConns[i][j] > p.MaxConns[i][j] {
						t.Fatalf("job %d pair (%d,%d): min %d > max %d",
							g, i, j, p.MinConns[i][j], p.MaxConns[i][j])
					}
					if p.MinConns[i][j] < 0 {
						t.Fatalf("job %d pair (%d,%d): negative window", g, i, j)
					}
					sumMin += p.MinConns[i][j]
					sumMax += p.MaxConns[i][j]
					sumMinBW += p.MinBW[i][j]
					sumMaxBW += p.MaxBW[i][j]
				}
				if sumMax != plan.MaxConns[i][j] {
					t.Fatalf("pair (%d,%d): job MaxConns sum %d != global %d",
						i, j, sumMax, plan.MaxConns[i][j])
				}
				if sumMin > plan.MinConns[i][j] {
					t.Fatalf("pair (%d,%d): job MinConns sum %d exceeds global %d",
						i, j, sumMin, plan.MinConns[i][j])
				}
				if math.Abs(sumMaxBW-plan.MaxBW[i][j]) > 1e-6*math.Max(1, plan.MaxBW[i][j]) {
					t.Fatalf("pair (%d,%d): job MaxBW sum %.6f != global %.6f",
						i, j, sumMaxBW, plan.MaxBW[i][j])
				}
				if sumMinBW > plan.MinBW[i][j]*(1+1e-9)+1e-9 {
					t.Fatalf("pair (%d,%d): job MinBW sum %.6f exceeds global %.6f",
						i, j, sumMinBW, plan.MinBW[i][j])
				}
			}
		}
	}
}

func TestPartitionPlanPriorityOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plan := randomPlan(4, 8, rng)
	parts := PartitionPlan(plan, ShareWeights(SharePriority, 2, []float64{3, 1}, nil))
	richer, poorer := 0, 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			richer += parts[0].MaxConns[i][j]
			poorer += parts[1].MaxConns[i][j]
		}
	}
	if richer <= poorer {
		t.Fatalf("priority 3 job got %d total conns, priority 1 job %d", richer, poorer)
	}
}

func TestShareWeights(t *testing.T) {
	if w := ShareWeights(ShareFair, 3, nil, nil); w[0] != 1 || w[1] != 1 || w[2] != 1 {
		t.Fatalf("fair weights = %v", w)
	}
	w := ShareWeights(ShareRemaining, 2, nil, []float64{0, 5e9})
	if w[0] <= 0 {
		t.Fatalf("drained job must keep a positive (vanishing) weight, got %v", w)
	}
	if w[0] >= w[1]/1000 {
		t.Fatalf("drained job should weigh vanishingly little, got %v", w)
	}
	// Mismatched attribute length falls back to fair.
	if w := ShareWeights(SharePriority, 2, []float64{1, 2, 3}, nil); w[0] != 1 || w[1] != 1 {
		t.Fatalf("mismatched priorities should fall back to fair, got %v", w)
	}
}

func TestParseShareMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ShareMode
	}{{"", ShareFair}, {"fair", ShareFair}, {"priority", SharePriority}, {"remaining", ShareRemaining}} {
		got, err := ParseShareMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseShareMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseShareMode("lottery"); err == nil {
		t.Fatal("unknown mode should error")
	}
}
