package rf

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/stats"
)

// synth builds a regression dataset from a known function with noise.
func synth(n int, seed uint64, f func(x []float64) float64) Dataset {
	rng := simrand.Derive(seed, "synth")
	var ds Dataset
	for i := 0; i < n; i++ {
		x := []float64{rng.Uniform(0, 10), rng.Uniform(0, 10), rng.Uniform(0, 10)}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, f(x)+rng.Norm(0, 0.5))
	}
	return ds
}

// TestLearnsPiecewiseFunction checks the forest fits an axis-aligned
// step function (CART's native shape) well out of sample.
func TestLearnsPiecewiseFunction(t *testing.T) {
	target := func(x []float64) float64 {
		if x[0] > 5 {
			return 100
		}
		if x[1] > 7 {
			return 50
		}
		return 10
	}
	train := synth(800, 1, target)
	test := synth(200, 2, target)
	f, err := Train(train, Config{NumTrees: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := f.PredictBatch(test.X)
	if r2 := stats.R2(pred, test.Y); r2 < 0.95 {
		t.Errorf("out-of-sample R2 = %.3f, want >= 0.95", r2)
	}
}

// TestLearnsLinearFunction checks reasonable fit on a smooth target
// (trees approximate, so the bar is lower).
func TestLearnsLinearFunction(t *testing.T) {
	target := func(x []float64) float64 { return 3*x[0] + 2*x[1] - x[2] }
	train := synth(1000, 4, target)
	test := synth(200, 5, target)
	f, err := Train(train, Config{NumTrees: 60, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	pred := f.PredictBatch(test.X)
	if r2 := stats.R2(pred, test.Y); r2 < 0.85 {
		t.Errorf("out-of-sample R2 = %.3f, want >= 0.85", r2)
	}
}

// TestPredictionsWithinLabelHull property-checks that forest predictions
// never leave the training-label range (they are averages of leaf
// means).
func TestPredictionsWithinLabelHull(t *testing.T) {
	train := synth(300, 7, func(x []float64) float64 { return x[0] * x[1] })
	f, err := Train(train, Config{NumTrees: 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := stats.Min(train.Y), stats.Max(train.Y)
	check := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) || math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		p := f.Predict([]float64{a, b, c})
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicTraining checks the same seed yields the same model.
func TestDeterministicTraining(t *testing.T) {
	ds := synth(300, 9, func(x []float64) float64 { return x[0] })
	f1, _ := Train(ds, Config{NumTrees: 10, Seed: 11})
	f2, _ := Train(ds, Config{NumTrees: 10, Seed: 11})
	probe := []float64{3.3, 4.4, 5.5}
	if f1.Predict(probe) != f2.Predict(probe) {
		t.Error("same-seed forests disagree")
	}
	f3, _ := Train(ds, Config{NumTrees: 10, Seed: 12})
	if f1.Predict(probe) == f3.Predict(probe) {
		t.Log("different seeds agreed (possible but unlikely)")
	}
}

// TestOOBRMSE checks the out-of-bag error is a sane magnitude.
func TestOOBRMSE(t *testing.T) {
	ds := synth(600, 16, func(x []float64) float64 {
		if x[0] > 5 {
			return 100
		}
		return 10
	})
	f, err := Train(ds, Config{NumTrees: 40, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	oob := f.OOBRMSE()
	if oob <= 0 || oob > 30 {
		t.Errorf("OOB RMSE = %.2f, want small positive", oob)
	}
}

// TestFeatureImportance checks that the only informative feature
// dominates.
func TestFeatureImportance(t *testing.T) {
	ds := synth(600, 18, func(x []float64) float64 { return 20 * x[1] })
	f, err := Train(ds, Config{NumTrees: 30, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance()
	if len(imp) != 3 {
		t.Fatalf("importance width %d", len(imp))
	}
	if imp[1] < 0.8 {
		t.Errorf("informative feature importance %.2f, want dominant", imp[1])
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %v", sum)
	}
}

// TestDatasetValidate checks shape validation errors.
func TestDatasetValidate(t *testing.T) {
	cases := map[string]Dataset{
		"empty":        {},
		"len mismatch": {X: [][]float64{{1}}, Y: []float64{1, 2}},
		"zero width":   {X: [][]float64{{}}, Y: []float64{1}},
		"ragged":       {X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}},
	}
	for name, ds := range cases {
		if err := ds.Validate(); err == nil {
			t.Errorf("%s: no validation error", name)
		}
	}
	ok := Dataset{X: [][]float64{{1, 2}, {3, 4}}, Y: []float64{1, 2}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
}

// TestDatasetSplit checks the train/test partition sizes.
func TestDatasetSplit(t *testing.T) {
	ds := synth(100, 20, func(x []float64) float64 { return x[0] })
	rng := simrand.Derive(21, "split")
	train, test := ds.Split(0.2, rng)
	if train.Len() != 80 || test.Len() != 20 {
		t.Errorf("split sizes %d/%d", train.Len(), test.Len())
	}
}

// TestDatasetSplitPartitionsRows checks every row lands on exactly one
// side with its own label, and that one rng seed gives one split.
func TestDatasetSplitPartitionsRows(t *testing.T) {
	ds := synth(100, 22, func(x []float64) float64 { return x[0] + 2*x[1] })
	train, test := ds.Split(0.3, simrand.Derive(23, "split"))
	seen := make(map[[3]float64]int)
	for _, side := range []Dataset{train, test} {
		for i, x := range side.X {
			k := [3]float64{x[0], x[1], x[2]}
			seen[k]++
			if want := x[0] + 2*x[1]; math.Abs(side.Y[i]-want) > 5 {
				t.Fatalf("row %v carries label %v, far from its own %v", x, side.Y[i], want)
			}
		}
	}
	for _, x := range ds.X {
		if n := seen[[3]float64{x[0], x[1], x[2]}]; n != 1 {
			t.Fatalf("row %v appears %d times across the split", x, n)
		}
	}
	train2, test2 := ds.Split(0.3, simrand.Derive(23, "split"))
	for i := range test.X {
		if [3]float64(test.X[i]) != [3]float64(test2.X[i]) || test.Y[i] != test2.Y[i] {
			t.Fatalf("test row %d differs between two splits from one seed", i)
		}
	}
	if train.Len() != train2.Len() {
		t.Fatalf("train sizes %d vs %d from one seed", train.Len(), train2.Len())
	}
}

// TestTrainRejectsBadData checks error paths.
func TestTrainRejectsBadData(t *testing.T) {
	if _, err := Train(Dataset{}, Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestPredictPanicsOnWidth checks the width guard.
func TestPredictPanicsOnWidth(t *testing.T) {
	ds := synth(50, 22, func(x []float64) float64 { return 1 })
	f, _ := Train(ds, Config{NumTrees: 5, Seed: 23})
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong feature width")
		}
	}()
	f.Predict([]float64{1})
}

// TestConstantLabels checks degenerate training works (single leaf).
func TestConstantLabels(t *testing.T) {
	var ds Dataset
	for i := 0; i < 50; i++ {
		ds.X = append(ds.X, []float64{float64(i), 0})
		ds.Y = append(ds.Y, 7)
	}
	f, err := Train(ds, Config{NumTrees: 5, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{25, 0}); got != 7 {
		t.Errorf("constant-label prediction %v, want 7", got)
	}
}
