package predict

import (
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/simrand"
)

// scratchModel trains a small model on synthetic rows.
func scratchModel(t *testing.T) *Model {
	t.Helper()
	rng := simrand.Derive(7, "predict-scratch")
	var ds rf.Dataset
	for i := 0; i < 150; i++ {
		pf := randomPair(rng, 5)
		ds.X = append(ds.X, pf.Vector())
		ds.Y = append(ds.Y, pf.SnapshotMbps*0.8+rng.Norm(0, 30))
	}
	m, err := Train(ds, TrainConfig{Forest: rf.Config{NumTrees: 25, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomPair(rng *simrand.Source, n int) dataset.PairFeatures {
	return dataset.PairFeatures{
		N:             n,
		SnapshotMbps:  rng.Uniform(10, 1400),
		MemUtilDst:    rng.Float64(),
		CPULoadSrc:    rng.Float64(),
		RetransSrc:    rng.Uniform(0, 30),
		DistanceMiles: rng.Uniform(50, 9000),
	}
}

// TestPredictMatrixIntoMatchesPlain locks PredictMatrixInto bit-exact
// against PredictMatrix, including reuse of a dirty dst.
func TestPredictMatrixIntoMatchesPlain(t *testing.T) {
	m := scratchModel(t)
	rng := simrand.Derive(9, "predict-scratch-feats")
	var dst bwmatrix.Matrix
	for trial := 0; trial < 3; trial++ {
		n := 3 + trial*2
		feats := make([][]dataset.PairFeatures, n)
		for i := range feats {
			feats[i] = make([]dataset.PairFeatures, n)
			for j := range feats[i] {
				if i != j {
					feats[i][j] = randomPair(rng, n)
				}
			}
		}
		want := m.PredictMatrix(feats)
		dst = m.PredictMatrixInto(dst, feats)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dst[i][j] != want[i][j] {
					t.Fatalf("trial %d: PredictMatrixInto[%d][%d] %v vs %v", trial, i, j, dst[i][j], want[i][j])
				}
			}
		}
	}
}

// TestVectorIntoMatchesVector locks the flattening used by every
// prediction loop.
func TestVectorIntoMatchesVector(t *testing.T) {
	rng := simrand.Derive(3, "vec")
	buf := make([]float64, 0, dataset.NumFeatures)
	for trial := 0; trial < 20; trial++ {
		pf := randomPair(rng, 2+trial%7)
		want := pf.Vector()
		got := pf.VectorInto(buf)
		if len(got) != len(want) {
			t.Fatalf("VectorInto length %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("VectorInto[%d] %v vs %v", i, got[i], want[i])
			}
		}
	}
}
