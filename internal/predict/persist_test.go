package predict

import (
	"bytes"
	"encoding/gob"
	"math"
	"path/filepath"
	"testing"

	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
)

func trainedModel(t *testing.T) (*Model, rf.Dataset) {
	t.Helper()
	ds, _ := dataset.Generate(dataset.GenConfig{Sizes: []int{3, 4}, DrawsPerSize: 3, Seed: 11})
	m, err := Train(ds, TrainConfig{Forest: rf.Config{NumTrees: 10, Seed: 11}, FlagLimit: 0.2, ErrWindow: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m, ds
}

// TestSaveLoadRoundTrip checks a reloaded model predicts identically
// and keeps its staleness configuration.
func TestSaveLoadRoundTrip(t *testing.T) {
	m, ds := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		if a, b := m.forest.Predict(ds.X[i]), got.forest.Predict(ds.X[i]); a != b {
			t.Fatalf("row %d: prediction %v != %v after reload", i, a, b)
		}
	}
	if got.errCap != 7 || got.flagLimit != 0.2 {
		t.Errorf("staleness config not preserved: errCap=%d flagLimit=%v", got.errCap, got.flagLimit)
	}
	if got.NeedsRetrain() || got.PendingRows() != 0 {
		t.Error("loaded model carries runtime staleness state")
	}
}

// TestSaveLoadFile checks the file helpers.
func TestSaveLoadFile(t *testing.T) {
	m, ds := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := m.forest.Predict(ds.X[0]), got.forest.Predict(ds.X[0]); a != b {
		t.Errorf("prediction differs after file round trip: %v vs %v", a, b)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadRejectsGarbage checks corrupt input fails loudly.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestLoadLegacyForestFile checks backward compatibility: a bare
// forest gob (the pre-model persistence format) loads with default
// staleness thresholds.
func TestLoadLegacyForestFile(t *testing.T) {
	m, ds := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Forest().Save(&buf); err != nil { // legacy: forest only
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("legacy forest file rejected: %v", err)
	}
	if a, b := m.forest.Predict(ds.X[0]), got.forest.Predict(ds.X[0]); a != b {
		t.Errorf("legacy prediction %v != %v", b, a)
	}
	if got.errCap != defaultErrWindow || got.flagLimit != defaultFlagLimit {
		t.Errorf("legacy load staleness config: errCap=%d flagLimit=%v", got.errCap, got.flagLimit)
	}
}

// fileNode, fileTree and fileForest mirror the forest's gob layout
// (internal/ml/rf): gob matches fields by name, so a test can write any
// forest a file could hold.
type fileNode struct {
	Feature          int
	Threshold, Value float64
	Left, Right      int32
}

type fileTree struct {
	Nodes    []fileNode
	FeatGain []float64
}

type fileForest struct {
	Version, NFeatures int
	Trees              []fileTree
}

// stump is a well-formed one-split tree: feature 0 at 1.0, leaves 10
// and 20.
func stump() fileTree {
	return fileTree{Nodes: []fileNode{{Feature: 0, Threshold: 1, Left: 1, Right: 2}, {Feature: -1, Value: 10}, {Feature: -1, Value: 20}}}
}

// hostileForests are forests a file can hold that prediction cannot
// walk: each would panic, loop or yield a non-finite bandwidth.
func hostileForests() map[string]fileForest {
	one := func(edit func(*fileTree)) fileForest {
		tr := stump()
		edit(&tr)
		return fileForest{Version: 1, NFeatures: dataset.NumFeatures, Trees: []fileTree{tr}}
	}
	return map[string]fileForest{
		"no-nodes":             one(func(tr *fileTree) { tr.Nodes = nil }),
		"child-out-of-range":   one(func(tr *fileTree) { tr.Nodes[0].Right = 3 }),
		"child-before-parent":  one(func(tr *fileTree) { tr.Nodes[0].Left = 0 }),
		"feature-out-of-range": one(func(tr *fileTree) { tr.Nodes[0].Feature = dataset.NumFeatures }),
		"gains-beyond-features": one(func(tr *fileTree) {
			tr.FeatGain = make([]float64, dataset.NumFeatures+1)
		}),
		"nan-threshold": one(func(tr *fileTree) { tr.Nodes[0].Threshold = math.NaN() }),
		"inf-value":     one(func(tr *fileTree) { tr.Nodes[2].Value = math.Inf(1) }),
		"sum-overflows": {Version: 1, NFeatures: dataset.NumFeatures, Trees: []fileTree{
			{Nodes: []fileNode{{Feature: -1, Value: math.MaxFloat64}}},
			{Nodes: []fileNode{{Feature: -1, Value: math.MaxFloat64}}},
		}},
		"wrong-width": {Version: 1, NFeatures: dataset.NumFeatures - 1, Trees: []fileTree{stump()}},
	}
}

func encodeForest(t testing.TB, ff fileForest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ff); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsHostileForests checks Load refuses every forest whose
// prediction would panic, loop or overflow, and still loads the
// well-formed stump they are edited from.
func TestLoadRejectsHostileForests(t *testing.T) {
	m, err := Load(bytes.NewReader(encodeForest(t, fileForest{Version: 1, NFeatures: dataset.NumFeatures, Trees: []fileTree{stump()}})))
	if err != nil {
		t.Fatalf("well-formed stump rejected: %v", err)
	}
	if got := m.PredictPair(dataset.PairFeatures{N: 8, SnapshotMbps: 2}); got != 20 {
		t.Fatalf("stump predicts %v, want 20", got)
	}
	for name, ff := range hostileForests() {
		if _, err := Load(bytes.NewReader(encodeForest(t, ff))); err == nil {
			t.Errorf("%s: hostile forest accepted", name)
		}
	}
}

// FuzzLoadModel drives a model file's bytes through Load. Every input
// must be refused, or load as a model whose prediction for a fixed
// feature vector is a finite bandwidth. The seed corpus
// (testdata/fuzz/FuzzLoadModel) holds a small trained model, the same
// forest bare, and every hostile forest of TestLoadRejectsHostileForests.
func FuzzLoadModel(f *testing.F) {
	pf := dataset.PairFeatures{N: 8, SnapshotMbps: 350, MemUtilDst: 0.4, CPULoadSrc: 0.3, RetransSrc: 0.01, DistanceMiles: 2400}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if v := m.PredictPair(pf); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("loaded model predicts %v", v)
		}
	})
}
