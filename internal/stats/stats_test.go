package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestMeanVarianceStdDev checks the basic moments on hand-computed
// values and degenerate inputs.
func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5) {
		t.Errorf("mean = %v, want 5", m)
	}
	if v := variance(xs); !almost(v, 4) {
		t.Errorf("variance = %v, want 4", v)
	}
	if s := StdDev(xs); !almost(s, 2) {
		t.Errorf("sd = %v, want 2", s)
	}
	if Mean(nil) != 0 || variance(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

// TestMinMax checks the extrema helpers.
func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty min/max should be 0")
	}
}

// TestRMSEAndMAE checks error metrics.
func TestRMSEAndMAE(t *testing.T) {
	pred := []float64{1, 2, 3}
	label := []float64{1, 2, 7}
	if r := RMSE(pred, label); !almost(r, math.Sqrt(16.0/3)) {
		t.Errorf("rmse = %v", r)
	}
	if m := MAE(pred, label); !almost(m, 4.0/3) {
		t.Errorf("mae = %v", m)
	}
	if RMSE(pred, label[:2]) != 0 {
		t.Error("mismatched RMSE should be 0")
	}
}

// TestR2 checks the determination coefficient: 1 for perfect
// prediction, 0 for predicting the mean.
func TestR2(t *testing.T) {
	label := []float64{1, 2, 3, 4}
	if r := R2(label, label); !almost(r, 1) {
		t.Errorf("perfect R2 = %v", r)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r := R2(mean, label); !almost(r, 0) {
		t.Errorf("mean-predictor R2 = %v", r)
	}
}

// TestBucketCounts checks the Table 1 bucketing semantics: half-open
// intervals, values at or below the first boundary not counted.
func TestBucketCounts(t *testing.T) {
	values := []float64{50, 100, 101, 150, 200, 201, 250, 251, 999}
	buckets := BucketCounts(values, []float64{100, 200, 250})
	if len(buckets) != 3 {
		t.Fatalf("bucket count %d", len(buckets))
	}
	// (100,200]: 101, 150, 200 -> 3. (200,250]: 201, 250 -> 2. >250: 251, 999 -> 2.
	want := []int{3, 2, 2}
	for i, w := range want {
		if buckets[i].Count != w {
			t.Errorf("bucket %d count = %d, want %d", i, buckets[i].Count, w)
		}
	}
	if BucketCounts(values, nil) != nil {
		t.Error("no boundaries should yield nil")
	}
}

// TestBucketTotalNeverExceedsInput property-checks that every value
// lands in at most one bucket.
func TestBucketTotalNeverExceedsInput(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Abs(v))
			}
		}
		buckets := BucketCounts(vals, []float64{1, 10, 100})
		total := 0
		for _, b := range buckets {
			total += b.Count
		}
		return total <= len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
