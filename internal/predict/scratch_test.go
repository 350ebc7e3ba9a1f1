package predict

import (
	"math"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/simrand"
)

// predictVec predicts one flattened feature vector through the shipped
// path: a one-pair block, clamped at 0.
func (m *Model) predictVec(vec []float64) float64 {
	var b pairBlock
	b.n = copy(b.vecs[0][:], vec) / dataset.NumFeatures
	return b.predict(m)[0]
}

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

// perPair is the prediction loop before tree-major blocks: one
// Forest.Predict per pair, clamped at 0, into a fresh matrix (assign)
// or summed into a DC pair (PredictDCMatrixByVM's association).
func perPair(m *Model, feats [][]dataset.PairFeatures, cell func(i, j int) (int, int, bool), n int) bwmatrix.Matrix {
	out := bwmatrix.New(n)
	for i := range feats {
		for j := range feats[i] {
			if a, b, ok := cell(i, j); ok {
				out[a][b] += math.Max(m.Forest().Predict(feats[i][j].Vector()), 0)
			}
		}
	}
	return out
}

func randomFeatures(rng *simrand.Source, n int) [][]dataset.PairFeatures {
	feats := make([][]dataset.PairFeatures, n)
	for i := range feats {
		feats[i] = make([]dataset.PairFeatures, n)
		for j := range feats[i] {
			if i != j {
				feats[i][j] = randomPair(rng, n)
			}
		}
	}
	return feats
}

func requireBitEqual(t *testing.T, what string, got, want bwmatrix.Matrix) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s[%d][%d] = %v, per-pair Predict %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestTreeMajorMatchesPerPair holds both matrix predictions, which walk
// the forest tree-major in blocks of blockPairs, to the per-pair loop
// bit for bit — on clusters of one block, exactly one, and several
// (the last one partial).
func TestTreeMajorMatchesPerPair(t *testing.T) {
	m := scratchModel(t)
	rng := simrand.Derive(11, "tree-major")
	for _, n := range []int{2, 8, 9, 12} {
		feats := randomFeatures(rng, n)
		offDiag := func(i, j int) (int, int, bool) { return i, j, i != j }
		requireBitEqual(t, "PredictMatrix", m.PredictMatrix(feats), perPair(m, feats, offDiag, n))
		// n VMs over ⌈n/3⌉ DCs: each DC pair sums several VM pairs.
		dcOf := make([]int, n)
		for v := range dcOf {
			dcOf[v] = v / 3
		}
		dcs := (n + 2) / 3
		crossDC := func(s, d int) (int, int, bool) { return dcOf[s], dcOf[d], dcOf[s] != dcOf[d] }
		requireBitEqual(t, "PredictDCMatrixByVM", m.PredictDCMatrixByVM(feats, dcOf, dcs), perPair(m, feats, crossDC, dcs))
	}
}

// TestPredictMatrixIntoAllocatesNothing: a warm PredictMatrixInto —
// the re-gauge's prediction — allocates no object, at the testbed's
// one block and at several.
func TestPredictMatrixIntoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := scratchModel(t)
	rng := simrand.Derive(12, "tree-major-allocs")
	for _, n := range []int{8, 12} {
		feats := randomFeatures(rng, n)
		dst := m.PredictMatrixInto(nil, feats)
		if got := testing.AllocsPerRun(10, func() { dst = m.PredictMatrixInto(dst, feats) }); got != 0 {
			t.Errorf("%d DCs: a warm PredictMatrixInto allocates %.0f objects, want 0", n, got)
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
