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
// predicts a fresh matrix every replan, and the per-pair feature
// vectors share one stack buffer instead of allocating n(n-1) slices.
// Entries are bit-identical to PredictMatrix's. The returned matrix is
// safe for concurrent readers only after this call returns; concurrent
// PredictMatrixInto calls on one Model need distinct dst matrices.
func (m *Model) PredictMatrixInto(dst bwmatrix.Matrix, features [][]dataset.PairFeatures) bwmatrix.Matrix {
	n := len(features)
	if dst.N() != n {
		dst = bwmatrix.New(n)
	}
	var vecArr [dataset.NumFeatures]float64
	vec := vecArr[:0]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				vec = features[i][j].VectorInto(vec)
				dst[i][j] = m.predictVec(vec)
			} else {
				dst[i][j] = 0
			}
		}
	}
	return dst
}

// predictVec predicts the stable runtime bandwidth for one DC pair from
// its flattened feature vector, clamped at 0.
func (m *Model) predictVec(vec []float64) float64 {
	v := m.forest.Predict(vec)
	if v < 0 {
		v = 0
	}
	return v
}

// PredictDCMatrixByVM predicts per VM pair and sums into a DC-level
// matrix — the association path of §3.3.3 ("BWs are summed to reflect
// the combined BW of a DC"). features is indexed by VM; dcOfVM maps
// each VM to its DC.
func (m *Model) PredictDCMatrixByVM(features [][]dataset.PairFeatures, dcOfVM []int, numDCs int) bwmatrix.Matrix {
	dst := bwmatrix.New(numDCs)
	var vecArr [dataset.NumFeatures]float64
	vec := vecArr[:0]
	for s := range features {
		for d := range features[s] {
			if s == d {
				continue
			}
			ds, dd := dcOfVM[s], dcOfVM[d]
			if ds == dd {
				continue
			}
			vec = features[s][d].VectorInto(vec)
			dst[ds][dd] += m.predictVec(vec)
		}
	}
	return dst
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
