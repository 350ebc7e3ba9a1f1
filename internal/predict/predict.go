// Package predict implements WANify's WAN Prediction Model (§3.1,
// §4.1.1): a Random-Forest regressor that gauges stable runtime WAN
// bandwidth for a whole cluster from a cheap 1-second snapshot.
//
// The paper's §3.3.4 also retrains a model that goes stale, judged by
// comparing predictions with observed runtime values. Nothing here does:
// the model's label is the 20-second all-pairs stable rate, which no
// live path measures (a re-gauge collects a 1-second snapshot, the
// model's input). Freshness is kept where the code runs instead —
// runtime.Config.StaleAfterS re-gauges a stale plan, and the serving
// plane's fingerprint refresh and cache TTL retrain a model per regime.
package predict

import (
	"fmt"
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/stats"
)

// SignificantMbps is the bandwidth-difference threshold the paper uses
// throughout to call a gap "significant" (100 Mbps, [13, 24]).
const SignificantMbps = 100.0

// Model is a trained runtime-bandwidth predictor.
type Model struct {
	forest *rf.Forest
}

// TrainConfig configures model training.
type TrainConfig struct {
	// Forest holds the Random Forest hyperparameters; the zero value
	// uses the paper's 100 estimators.
	Forest rf.Config
}

// Train fits the model on a labeled dataset.
func Train(ds rf.Dataset, cfg TrainConfig) (*Model, error) {
	f, err := rf.Train(ds, cfg.Forest)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	return &Model{forest: f}, nil
}

// Forest exposes the underlying ensemble (for importance reporting).
func (m *Model) Forest() *rf.Forest { return m.forest }

// PredictMatrix predicts the full runtime bandwidth matrix from the
// per-pair snapshot features (diagonal left at zero). This is the
// Runtime Bandwidth Determination sub-module of §4.1.2: its output is
// shaped exactly like the static matrices existing GDA systems consume,
// which is what makes WANify a drop-in input (§2.3).
func (m *Model) PredictMatrix(features [][]dataset.PairFeatures) bwmatrix.Matrix {
	return m.PredictMatrixInto(nil, features)
}

// PredictMatrixInto is PredictMatrix with a caller-owned result matrix,
// reused when already n×n (nil allocates): the re-gauging controller
// predicts a fresh matrix every replan. The pairs go through the forest
// tree-major in row-major blocks of up to blockPairs (pairBlock, on the
// stack), so a steady-state call allocates nothing; entries are
// bit-identical to a per-pair Forest.Predict clamped at 0. The returned
// matrix is safe for concurrent readers only after this call returns;
// concurrent PredictMatrixInto calls on one Model need distinct dst
// matrices.
func (m *Model) PredictMatrixInto(dst bwmatrix.Matrix, features [][]dataset.PairFeatures) bwmatrix.Matrix {
	n := len(features)
	if dst.N() != n {
		dst = bwmatrix.New(n)
	}
	var b pairBlock
	for i := 0; i < n; i++ {
		dst[i][i] = 0
		for j := 0; j < n; j++ {
			if i != j && b.add(features[i][j], i, j) {
				b.set(m, dst)
			}
		}
	}
	b.set(m, dst)
	return dst
}

// PredictDCMatrixByVM predicts per VM pair and sums into a DC-level
// matrix — the association path of §3.3.3 ("BWs are summed to reflect
// the combined BW of a DC"). features is indexed by VM; dcOfVM maps
// each VM to its DC. VM pairs go through the forest tree-major in
// blocks, as in PredictMatrixInto, and add into their DC pair in VM
// pair order, so the sums are bit-identical to a per-pair loop's.
func (m *Model) PredictDCMatrixByVM(features [][]dataset.PairFeatures, dcOfVM []int, numDCs int) bwmatrix.Matrix {
	dst := bwmatrix.New(numDCs)
	var b pairBlock
	for s := range features {
		for d := range features[s] {
			if ds, dd := dcOfVM[s], dcOfVM[d]; s != d && ds != dd && b.add(features[s][d], ds, dd) {
				b.sum(m, dst)
			}
		}
	}
	b.sum(m, dst)
	return dst
}

// blockPairs is how many pairs one tree-major pass of the forest
// predicts: the 8-DC testbed's 56 pairs take one pass, and a block's
// feature rows stay a few kilobytes of stack at any cluster size.
const blockPairs = 64

// pairBlock is a batch of pair feature vectors waiting for one
// tree-major pass of the forest, with the matrix cell each one lands
// in. It lives on its caller's stack.
type pairBlock struct {
	vecs [blockPairs][dataset.NumFeatures]float64
	at   [blockPairs][2]int
	out  [blockPairs]float64
	n    int
}

// add queues one pair's features for cell (i, j) and reports whether
// the block is full.
func (b *pairBlock) add(p dataset.PairFeatures, i, j int) bool {
	p.VectorInto(b.vecs[b.n][:0])
	b.at[b.n] = [2]int{i, j}
	b.n++
	return b.n == blockPairs
}

// predict empties the block through the forest: one prediction per
// queued pair, clamped at 0, in queue order.
func (b *pairBlock) predict(m *Model) []float64 {
	var rows [blockPairs][]float64
	for k := range b.n {
		rows[k] = b.vecs[k][:]
	}
	out := m.forest.PredictBatchInto(b.out[:b.n], rows[:b.n])
	for k, v := range out {
		if v < 0 {
			out[k] = 0
		}
	}
	b.n = 0
	return out
}

// set writes the block's predictions into their cells.
func (b *pairBlock) set(m *Model, dst bwmatrix.Matrix) {
	at := &b.at
	for k, v := range b.predict(m) {
		dst[at[k][0]][at[k][1]] = v
	}
}

// sum adds the block's predictions into their cells, in queue order.
func (b *pairBlock) sum(m *Model, dst bwmatrix.Matrix) {
	at := &b.at
	for k, v := range b.predict(m) {
		dst[at[k][0]][at[k][1]] += v
	}
}

// Accuracy returns the fraction of rows whose prediction falls within
// the significance threshold of the label — the metric behind the
// paper's "98.51% training accuracy" claim — together with RMSE and R².
func (m *Model) Accuracy(ds rf.Dataset) (acc, rmse, r2 float64) {
	pred := m.forest.PredictBatch(ds.X)
	within := 0
	for i := range pred {
		if math.Abs(pred[i]-ds.Y[i]) <= SignificantMbps {
			within++
		}
	}
	if len(pred) > 0 {
		acc = float64(within) / float64(len(pred))
	}
	return acc, stats.RMSE(pred, ds.Y), stats.R2(pred, ds.Y)
}
