// Package predict implements WANify's WAN Prediction Model (§3.1,
// §4.1.1): a Random-Forest regressor that gauges stable runtime WAN
// bandwidth for a whole cluster from a cheap 1-second snapshot, plus
// the staleness machinery of §3.3.4 (intermittent comparison of
// predictions with observed runtime values, a log-based retrain flag,
// and warm-start retraining on newly collected rows).
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

// Default staleness thresholds (§3.3.4), shared by Train and by the
// legacy model-file fallback in Load.
const (
	defaultFlagLimit = 0.15
	defaultErrWindow = 10
)

// Model is a trained runtime-bandwidth predictor.
type Model struct {
	forest *rf.Forest

	// Staleness tracking (§3.3.4).
	errWindow   []float64 // recent significant-error fractions
	errCap      int
	flagLimit   float64 // flag when mean significant-error fraction exceeds this
	retrainFlag bool

	// Rows collected during monitoring, available for warm-start
	// retraining when the flag raises.
	pending rf.Dataset
}

// TrainConfig configures model training.
type TrainConfig struct {
	// Forest holds the Random Forest hyperparameters; the zero value
	// uses the paper's 100 estimators.
	Forest rf.Config
	// FlagLimit is the mean significant-error fraction beyond which the
	// model flags itself for retraining (default 0.15).
	FlagLimit float64
	// ErrWindow is how many recent observations feed the staleness
	// statistic (default 10).
	ErrWindow int
}

// Train fits the model on a labeled dataset.
func Train(ds rf.Dataset, cfg TrainConfig) (*Model, error) {
	f, err := rf.Train(ds, cfg.Forest)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	if cfg.FlagLimit == 0 {
		cfg.FlagLimit = defaultFlagLimit
	}
	if cfg.ErrWindow == 0 {
		cfg.ErrWindow = defaultErrWindow
	}
	return &Model{forest: f, errCap: cfg.ErrWindow, flagLimit: cfg.FlagLimit}, nil
}

// Forest exposes the underlying ensemble (for importance reporting).
func (m *Model) Forest() *rf.Forest { return m.forest }

// PredictPair predicts the stable runtime bandwidth for one DC pair.
func (m *Model) PredictPair(pf dataset.PairFeatures) float64 {
	v := m.forest.Predict(pf.Vector())
	if v < 0 {
		v = 0
	}
	return v
}

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

// predictVec is PredictPair over an already-flattened feature vector.
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

// ObserveActual compares a prediction with actual runtime values
// observed during execution (§3.3.4) and updates the staleness
// statistic. It also banks the observed rows for warm-start retraining.
func (m *Model) ObserveActual(features [][]dataset.PairFeatures, actual bwmatrix.Matrix) {
	n := actual.N()
	total, sig := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			total++
			if math.Abs(m.PredictPair(features[i][j])-actual[i][j]) > SignificantMbps {
				sig++
			}
			m.pending.X = append(m.pending.X, features[i][j].Vector())
			m.pending.Y = append(m.pending.Y, actual[i][j])
		}
	}
	if total == 0 {
		return
	}
	frac := float64(sig) / float64(total)
	m.errWindow = append(m.errWindow, frac)
	if len(m.errWindow) > m.errCap {
		m.errWindow = m.errWindow[len(m.errWindow)-m.errCap:]
	}
	if stats.Mean(m.errWindow) > m.flagLimit {
		m.retrainFlag = true
	}
}

// NeedsRetrain reports whether the staleness flag is raised.
func (m *Model) NeedsRetrain() bool { return m.retrainFlag }

// PendingRows returns how many observed rows are banked for retraining.
func (m *Model) PendingRows() int { return m.pending.Len() }

// Retrain warm-starts the forest with extraTrees new trees grown on the
// banked rows (optionally augmented with extra data), then clears the
// flag. It is a no-op error if nothing was banked and extra is empty.
func (m *Model) Retrain(extra rf.Dataset, extraTrees int) error {
	ds := m.pending
	if extra.Len() > 0 {
		ds = ds.Append(extra)
	}
	if ds.Len() == 0 {
		return fmt.Errorf("predict: retrain with no banked or extra rows")
	}
	if extraTrees <= 0 {
		extraTrees = 20
	}
	if err := m.forest.WarmStart(ds, extraTrees); err != nil {
		return err
	}
	m.pending = rf.Dataset{}
	m.errWindow = nil
	m.retrainFlag = false
	return nil
}
