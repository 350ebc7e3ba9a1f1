package predict

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
)

func trainedModel(t *testing.T) (*Model, rf.Dataset) {
	t.Helper()
	ds, _ := dataset.Generate(dataset.GenConfig{Sizes: []int{3, 4}, DrawsPerSize: 3, Seed: 11})
	m, err := Train(ds, TrainConfig{Forest: rf.Config{NumTrees: 10, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	return m, ds
}

// TestSaveLoadRoundTrip checks a reloaded model predicts identically.
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
// forest gob (the pre-model persistence format) loads.
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
}

// TestLoadIgnoresRetiredStalenessFields checks the committed model
// files written while the model header still carried the §3.3.4
// staleness thresholds (ErrCap and the flag limit) — the FuzzLoadModel
// seed and the small model CI drives a run from. Each loads and
// predicts, bit for bit over a grid of feature vectors, what the forest
// after its header predicts loaded bare. The fuzz property alone would
// also accept a refusal.
func TestLoadIgnoresRetiredStalenessFields(t *testing.T) {
	small, err := os.ReadFile(filepath.Join("testdata", "model-3tree.gob"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"FuzzLoadModel/model": fuzzSeed(t, "model"), "model-3tree.gob": small} {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s rejected: %v", name, err)
		}
		br := bytes.NewReader(data)
		var hdr struct{ ErrCap int }
		if err := gob.NewDecoder(br).Decode(&hdr); err != nil || hdr.ErrCap <= 0 {
			t.Fatalf("%s: header %+v (%v) carries no staleness fields", name, hdr, err)
		}
		bare, err := Load(bytes.NewReader(data[len(data)-br.Len():]))
		if err != nil {
			t.Fatalf("%s: bare forest: %v", name, err)
		}
		for _, n := range []int{2, 5, 8} {
			for _, snap := range []float64{0, 40, 350, 1200} {
				for _, dist := range []float64{100, 2400, 9000} {
					for _, load := range []float64{0, 0.5, 1} {
						v := dataset.PairFeatures{N: n, SnapshotMbps: snap, MemUtilDst: load, CPULoadSrc: load, RetransSrc: 10 * load, DistanceMiles: dist}.Vector()
						if a, b := got.predictVec(v), bare.predictVec(v); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("%s at %v: model predicts %v, its bare forest %v", name, v, a, b)
						}
					}
				}
			}
		}
	}
}

// fuzzSeed reads the bytes of a committed FuzzLoadModel seed.
func fuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadModel", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(seed)), "\n")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("fuzz seed %s: %v", name, err)
	}
	return []byte(data)
}

// TestSaveWritesPlainHeader checks the header Save writes is the magic
// and the version alone, still version 1, with no staleness threshold
// beside them, and that the committed model-plain-header fuzz seed has
// that shape too, so the fuzz corpus covers both header shapes.
func TestSaveWritesPlainHeader(t *testing.T) {
	m, _ := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"Save": buf.Bytes(), "FuzzLoadModel/model-plain-header": fuzzSeed(t, "model-plain-header")} {
		var hdr struct {
			Magic   string
			Version int
			ErrCap  int
		}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&hdr); err != nil {
			t.Fatalf("%s: header: %v", name, err)
		}
		if hdr.Magic != persistMagic || hdr.Version != 1 || hdr.ErrCap != 0 {
			t.Fatalf("%s: header %+v, want magic %q, version 1 and no ErrCap", name, hdr, persistMagic)
		}
		if _, err := Load(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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
	if got := m.predictVec(dataset.PairFeatures{N: 8, SnapshotMbps: 2}.Vector()); got != 20 {
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
// (testdata/fuzz/FuzzLoadModel) holds a small trained model under both
// header shapes — model, with the retired staleness fields, and
// model-plain-header, without — the same forest bare, and every hostile
// forest of TestLoadRejectsHostileForests.
func FuzzLoadModel(f *testing.F) {
	vec := dataset.PairFeatures{N: 8, SnapshotMbps: 350, MemUtilDst: 0.4, CPULoadSrc: 0.3, RetransSrc: 0.01, DistanceMiles: 2400}.Vector()
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if v := m.predictVec(vec); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("loaded model predicts %v", v)
		}
	})
}
