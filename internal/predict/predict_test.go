package predict

import (
	"testing"

	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
)

// trainSmall builds a model on a small generated dataset.
func trainSmall(t *testing.T, seed uint64) (*Model, rf.Dataset) {
	t.Helper()
	ds, _ := dataset.Generate(dataset.GenConfig{Sizes: []int{3, 5, 8}, DrawsPerSize: 4, Seed: seed})
	m, err := Train(ds, TrainConfig{Forest: rf.Config{NumTrees: 30, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return m, ds
}

// TestTrainAndAccuracy checks the model trains and is accurate at the
// paper's significance threshold on its own training data.
func TestTrainAndAccuracy(t *testing.T) {
	m, ds := trainSmall(t, 1)
	acc, rmse, r2 := m.Accuracy(ds)
	if acc < 0.9 {
		t.Errorf("train accuracy %.3f, want >= 0.9", acc)
	}
	if rmse <= 0 {
		t.Errorf("rmse = %v", rmse)
	}
	if r2 < 0.5 {
		t.Errorf("R2 = %v", r2)
	}
	t.Logf("acc=%.3f rmse=%.1f r2=%.3f", acc, rmse, r2)
}

// TestPredictionNonNegative checks prediction clamping.
func TestPredictionNonNegative(t *testing.T) {
	m, _ := trainSmall(t, 2)
	pf := dataset.PairFeatures{N: 8, SnapshotMbps: 0, MemUtilDst: 1, CPULoadSrc: 1, RetransSrc: 100, DistanceMiles: 12000}
	if v := m.predictVec(pf.Vector()); v < 0 {
		t.Errorf("negative prediction %v", v)
	}
}

// TestPredictMatrixShape checks matrix assembly from features.
func TestPredictMatrixShape(t *testing.T) {
	m, _ := trainSmall(t, 3)
	n := 4
	feats := make([][]dataset.PairFeatures, n)
	for i := range feats {
		feats[i] = make([]dataset.PairFeatures, n)
		for j := range feats[i] {
			if i != j {
				feats[i][j] = dataset.PairFeatures{N: n, SnapshotMbps: 300, DistanceMiles: 5000}
			}
		}
	}
	pred := m.PredictMatrix(feats)
	if pred.N() != n {
		t.Fatalf("matrix size %d", pred.N())
	}
	for i := 0; i < n; i++ {
		if pred[i][i] != 0 {
			t.Errorf("diagonal [%d] = %v", i, pred[i][i])
		}
		for j := 0; j < n; j++ {
			if i != j && pred[i][j] <= 0 {
				t.Errorf("prediction [%d][%d] = %v", i, j, pred[i][j])
			}
		}
	}
}

// TestPredictDCMatrixByVM checks association summing.
func TestPredictDCMatrixByVM(t *testing.T) {
	m, _ := trainSmall(t, 4)
	// 3 VMs: VMs 0,1 in DC0, VM 2 in DC1.
	feats := make([][]dataset.PairFeatures, 3)
	for i := range feats {
		feats[i] = make([]dataset.PairFeatures, 3)
	}
	pf := dataset.PairFeatures{N: 2, SnapshotMbps: 400, DistanceMiles: 3000}
	feats[0][2], feats[1][2] = pf, pf
	feats[2][0], feats[2][1] = pf, pf
	dcOf := []int{0, 0, 1}
	got := m.PredictDCMatrixByVM(feats, dcOf, 2)
	single := m.predictVec(pf.Vector())
	if got[0][1] != 2*single {
		t.Errorf("DC0->DC1 = %v, want 2x single prediction %v", got[0][1], single)
	}
	if got[1][0] != 2*single {
		t.Errorf("DC1->DC0 = %v, want %v", got[1][0], 2*single)
	}
}

// TestSnapshotToPredictionPipeline runs the real online path end to
// end: snapshot features from a live sim, predict, compare to a
// measured stable matrix — prediction must beat the raw snapshot on
// far links (where the 1-second probe underreports).
func TestSnapshotToPredictionPipeline(t *testing.T) {
	m, _ := trainSmall(t, 8)
	// A fresh cluster the model has never seen.
	sims, _ := dataset.Generate(dataset.GenConfig{Sizes: []int{6}, DrawsPerSize: 1, Seed: 99})
	if sims.Len() != 30 {
		t.Fatalf("unexpected session size %d", sims.Len())
	}
	pred := m.Forest().PredictBatch(sims.X)
	within := 0
	for i := range pred {
		d := pred[i] - sims.Y[i]
		if d < 0 {
			d = -d
		}
		if d <= SignificantMbps {
			within++
		}
	}
	frac := float64(within) / float64(len(pred))
	if frac < 0.7 {
		t.Errorf("out-of-cluster accuracy %.2f, want >= 0.7", frac)
	}
	t.Logf("unseen-cluster accuracy at 100 Mbps: %.2f", frac)
}
