// Package rf implements a decision-tree-based Random Forest regressor
// from scratch, the prediction technique WANify selects in §3.1:
// bagged CART regression trees with per-split feature subsampling.
//
// The paper motivates the choice: the runtime-BW problem is a
// multivariate regression with many outliers, where ensembles of
// variance-reduction trees resist over-fitting and need far less
// training data than deep models. Training also reports an out-of-bag
// error estimate and the impurity-based feature importance used to
// validate that "all features in Table 3 were significant".
package rf

import (
	"errors"
	"fmt"
	"math"

	"github.com/wanify/wanify/internal/simrand"
)

// Dataset is a supervised regression dataset: X[i] is a feature vector,
// Y[i] its label. All rows must share the same width.
type Dataset struct {
	X [][]float64
	Y []float64
}

// Len returns the number of rows.
func (d Dataset) Len() int { return len(d.X) }

// Validate checks shape consistency.
func (d Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("rf: %d feature rows vs %d labels", len(d.X), len(d.Y))
	}
	if len(d.X) == 0 {
		return errors.New("rf: empty dataset")
	}
	w := len(d.X[0])
	if w == 0 {
		return errors.New("rf: zero-width feature vectors")
	}
	for i, row := range d.X {
		if len(row) != w {
			return fmt.Errorf("rf: row %d has width %d, want %d", i, len(row), w)
		}
	}
	return nil
}

// Split partitions the dataset into train/test by the given test
// fraction, shuffled with rng.
func (d Dataset) Split(testFrac float64, rng *simrand.Source) (train, test Dataset) {
	n := d.Len()
	perm := rng.Perm(n)
	nTest := int(float64(n) * testFrac)
	for k, i := range perm {
		if k < nTest {
			test.X = append(test.X, d.X[i])
			test.Y = append(test.Y, d.Y[i])
		} else {
			train.X = append(train.X, d.X[i])
			train.Y = append(train.Y, d.Y[i])
		}
	}
	return train, test
}

// Config holds the forest hyperparameters. The zero value is usable:
// every field defaults as documented.
type Config struct {
	// NumTrees is the ensemble size (default 100, the paper's best
	// estimator count, §5.1).
	NumTrees int
	// MaxFeatures is the number of features sampled per split
	// (default max(1, p/3), the usual regression-forest heuristic).
	MaxFeatures int
	// Seed drives bootstrap sampling and feature subsampling.
	Seed uint64
}

func (c Config) withDefaults(nFeatures int) Config {
	if c.NumTrees == 0 {
		c.NumTrees = 100
	}
	if c.MaxFeatures == 0 {
		c.MaxFeatures = nFeatures / 3
	}
	if c.MaxFeatures < 1 {
		c.MaxFeatures = 1
	}
	if c.MaxFeatures > nFeatures {
		c.MaxFeatures = nFeatures
	}
	return c
}

// Forest is a trained Random Forest regressor.
type Forest struct {
	cfg       Config
	nFeatures int
	trees     []*tree

	// oobSum/oobCount accumulate out-of-bag predictions per training row.
	oobSum   []float64
	oobCount []int
	oobY     []float64
}

// Train fits a forest on the dataset.
func Train(ds Dataset, cfg Config) (*Forest, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	nFeat := len(ds.X[0])
	cfg = cfg.withDefaults(nFeat)
	f := &Forest{
		cfg:       cfg,
		nFeatures: nFeat,
		oobSum:    make([]float64, ds.Len()),
		oobCount:  make([]int, ds.Len()),
		oobY:      append([]float64(nil), ds.Y...),
	}
	f.addTrees(ds, cfg.NumTrees, simrand.Derive(cfg.Seed, "rf"))
	return f, nil
}

// addTrees grows k bootstrap trees on ds and appends them, drawing
// from one RNG stream consumed tree after tree. Bit-identical to
// addTreesReference — the bootstrap and split-subsample draws
// interleave exactly as there; only the allocations live in the shared
// grower scratch (locked by TestTrainMatchesReference).
func (f *Forest) addTrees(ds Dataset, k int, rng *simrand.Source) {
	n := ds.Len()
	g := newGrower(ds.X, ds.Y, f.cfg.MaxFeatures, f.nFeatures)
	g.rng = rng
	inBag := make([]bool, n)
	idx := make([]int, n)
	for t := 0; t < k; t++ {
		clear(inBag)
		for i := range idx {
			j := rng.IntN(n)
			idx[i] = j
			inBag[j] = true
		}
		tr := g.grow(idx)
		f.trees = append(f.trees, tr)
		for i := 0; i < n; i++ {
			if !inBag[i] {
				f.oobSum[i] += tr.predict(ds.X[i])
				f.oobCount[i]++
			}
		}
	}
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// NumFeatures returns the feature-vector width the model expects.
func (f *Forest) NumFeatures() int { return f.nFeatures }

// Predict returns the ensemble mean prediction for one feature vector.
func (f *Forest) Predict(x []float64) float64 {
	if len(x) != f.nFeatures {
		panic(fmt.Sprintf("rf: predict width %d != model width %d", len(x), f.nFeatures))
	}
	s := 0.0
	for _, t := range f.trees {
		s += t.predict(x)
	}
	return s / float64(len(f.trees))
}

// PredictBatch predicts every row of X.
func (f *Forest) PredictBatch(X [][]float64) []float64 {
	return f.PredictBatchInto(nil, X)
}

// PredictBatchInto is PredictBatch into dst's storage when its
// capacity holds len(X) predictions (a fresh slice otherwise). It walks
// the forest tree-major — every tree over every row before the next
// tree, so one tree's nodes stay in cache across the batch — and each
// row still sums its trees in index order from zero and divides once,
// so every prediction is bit-identical to Predict's. It panics, as
// Predict does, when a row's width is not the model's.
func (f *Forest) PredictBatchInto(dst []float64, X [][]float64) []float64 {
	if cap(dst) < len(X) {
		dst = make([]float64, len(X))
	}
	dst = dst[:len(X)]
	for k, x := range X {
		if len(x) != f.nFeatures {
			panic(fmt.Sprintf("rf: predict width %d != model width %d", len(x), f.nFeatures))
		}
		dst[k] = 0
	}
	for _, t := range f.trees {
		for k, x := range X {
			dst[k] += t.predict(x)
		}
	}
	for k := range dst {
		dst[k] /= float64(len(f.trees))
	}
	return dst
}

// OOBRMSE returns the out-of-bag root-mean-square error over the
// training dataset — an unbiased generalization estimate for the
// training report, not a staleness signal: a loaded forest has no
// training rows and reports 0. Rows never out of bag are skipped; it
// returns 0 when no row qualifies.
func (f *Forest) OOBRMSE() float64 {
	var sse float64
	var n int
	for i := range f.oobSum {
		if f.oobCount[i] == 0 {
			continue
		}
		d := f.oobSum[i]/float64(f.oobCount[i]) - f.oobY[i]
		sse += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sse / float64(n))
}

// FeatureImportance returns per-feature importance: total SSE reduction
// attributed to splits on each feature, normalized to sum to 1 (when
// any split exists).
func (f *Forest) FeatureImportance() []float64 {
	imp := make([]float64, f.nFeatures)
	for _, t := range f.trees {
		for i, g := range t.featGain {
			imp[i] += g
		}
	}
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}
