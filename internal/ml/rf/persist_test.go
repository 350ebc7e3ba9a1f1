package rf

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// TestSaveLoadRoundTrip checks persisted forests predict identically.
func TestSaveLoadRoundTrip(t *testing.T) {
	ds := synth(300, 30, func(x []float64) float64 { return 5*x[0] + x[2] })
	f, err := Train(ds, Config{NumTrees: 15, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTrees() != f.NumTrees() || g.NumFeatures() != f.NumFeatures() {
		t.Fatalf("shape mismatch after load")
	}
	for i := 0; i < 50; i++ {
		x := ds.X[i]
		if f.Predict(x) != g.Predict(x) {
			t.Fatalf("prediction mismatch on row %d", i)
		}
	}
	// Importances survive the round trip.
	fi, gi := f.FeatureImportance(), g.FeatureImportance()
	for k := range fi {
		if fi[k] != gi[k] {
			t.Errorf("importance %d differs", k)
		}
	}
}

// retiredConfig is Config as model files once stored it: with a
// Workers field (it selected a streamed, goroutine-parallel training
// mode) and with the tree bounds MaxDepth, MinLeaf and MinSplit, which
// are constants now.
type retiredConfig struct {
	NumTrees, MaxDepth, MinLeaf, MinSplit, MaxFeatures int
	Seed                                               uint64
	Workers                                            int
}

type retiredPersistForest struct {
	Version   int
	NFeatures int
	Config    retiredConfig
	Trees     []persistTree
}

// requireRetiredFileLoads rewrites a current model file in the retired
// layout with cfg's retired fields set by retire, and checks the result
// loads with its source's config and predicts what its source forest
// predicts: gob drops a field the target struct lacks.
func requireRetiredFileLoads(t *testing.T, retire func(*retiredConfig)) {
	t.Helper()
	ds := synth(200, 34, func(x []float64) float64 { return 3*x[1] - x[0] })
	f, err := Train(ds, Config{NumTrees: 12, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	var current bytes.Buffer
	if err := f.Save(&current); err != nil {
		t.Fatal(err)
	}
	var old retiredPersistForest
	if err := gob.NewDecoder(bytes.NewReader(current.Bytes())).Decode(&old); err != nil {
		t.Fatal(err)
	}
	retire(&old.Config)
	var retired bytes.Buffer
	if err := gob.NewEncoder(&retired).Encode(old); err != nil {
		t.Fatal(err)
	}

	g, err := Load(&retired)
	if err != nil {
		t.Fatalf("file with retired fields %+v rejected: %v", old.Config, err)
	}
	if g.cfg != f.cfg {
		t.Fatalf("config after load %+v, want %+v", g.cfg, f.cfg)
	}
	for i, x := range ds.X {
		if g.Predict(x) != f.Predict(x) {
			t.Fatalf("row %d: loaded forest predicts %v, source %v", i, g.Predict(x), f.Predict(x))
		}
	}
}

// TestLoadIgnoresRetiredWorkersField checks a model file written when
// Config still carried a Workers field.
func TestLoadIgnoresRetiredWorkersField(t *testing.T) {
	requireRetiredFileLoads(t, func(c *retiredConfig) {
		c.MinLeaf, c.MinSplit = minLeaf, minSplit
		c.Workers = -1
	})
}

// TestLoadIgnoresRetiredTreeBounds checks a model file written when
// Config still carried MaxDepth, MinLeaf and MinSplit, at the defaults
// every such file holds (unbounded depth, 2, 5).
func TestLoadIgnoresRetiredTreeBounds(t *testing.T) {
	requireRetiredFileLoads(t, func(c *retiredConfig) {
		c.MaxDepth, c.MinLeaf, c.MinSplit = 0, 2, 5
	})
}

// TestLoadRejectsGarbage checks error handling on corrupt input.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}
