package dataset

import (
	"math"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/stats"
	"github.com/wanify/wanify/internal/substrate"
)

// TestFeatureVectorOrder checks the Table 3 canonical ordering.
func TestFeatureVectorOrder(t *testing.T) {
	pf := PairFeatures{
		N: 8, SnapshotMbps: 500, MemUtilDst: 0.4,
		CPULoadSrc: 0.7, RetransSrc: 3.2, DistanceMiles: 9000,
	}
	v := pf.Vector()
	if len(v) != NumFeatures {
		t.Fatalf("vector width %d, want %d", len(v), NumFeatures)
	}
	want := []float64{8, 500, 0.4, 0.7, 3.2, 9000}
	for i, w := range want {
		if v[i] != w {
			t.Errorf("feature %s = %v, want %v", FeatureNames[i], v[i], w)
		}
	}
}

// TestSnapshotFeaturesShape checks per-pair feature extraction on a
// live cluster.
func TestSnapshotFeaturesShape(t *testing.T) {
	cfg := netsim.UniformCluster(geo.TestbedSubset(4), substrate.T3Nano, 1)
	cfg.Frozen = true
	sim := netsim.NewSim(cfg)
	feats, rep := SnapshotFeatures(sim, simrand.Derive(1, "t"))
	if len(feats) != 4 {
		t.Fatalf("feature matrix size %d", len(feats))
	}
	if rep.ElapsedS != 1 {
		t.Errorf("snapshot consumed %v s, want 1", rep.ElapsedS)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			pf := feats[i][j]
			if i == j {
				if pf.SnapshotMbps != 0 {
					t.Errorf("diagonal [%d][%d] has snapshot %v", i, j, pf.SnapshotMbps)
				}
				continue
			}
			if pf.N != 4 {
				t.Errorf("N = %d", pf.N)
			}
			if pf.SnapshotMbps <= 0 {
				t.Errorf("snapshot [%d][%d] = %v", i, j, pf.SnapshotMbps)
			}
			if pf.DistanceMiles <= 0 {
				t.Errorf("distance [%d][%d] = %v", i, j, pf.DistanceMiles)
			}
			if pf.MemUtilDst <= 0 || pf.MemUtilDst > 1 {
				t.Errorf("mem util [%d][%d] = %v", i, j, pf.MemUtilDst)
			}
		}
	}
}

// TestGenerateShapes checks session accounting: rows per size follow
// N(N-1) per draw, and the measurement report accumulates.
func TestGenerateShapes(t *testing.T) {
	ds, rep := Generate(GenConfig{Sizes: []int{3, 5}, DrawsPerSize: 2, Seed: 9})
	wantRows := 2*(3*2) + 2*(5*4)
	if ds.Len() != wantRows {
		t.Errorf("rows = %d, want %d", ds.Len(), wantRows)
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("generated dataset invalid: %v", err)
	}
	for i, row := range ds.X {
		if len(row) != NumFeatures {
			t.Fatalf("row %d width %d", i, len(row))
		}
		if ds.Y[i] < 0 {
			t.Errorf("negative label %v", ds.Y[i])
		}
	}
	// 4 sessions, each 1 s snapshot + 20 s label.
	if rep.ElapsedS != 4*21 {
		t.Errorf("collection elapsed %v, want 84", rep.ElapsedS)
	}
}

// TestGenerateDeterminism checks the same seed yields the same dataset.
func TestGenerateDeterminism(t *testing.T) {
	a, _ := Generate(GenConfig{Sizes: []int{4}, DrawsPerSize: 2, Seed: 5})
	b, _ := Generate(GenConfig{Sizes: []int{4}, DrawsPerSize: 2, Seed: 5})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ")
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("label %d differs: %v vs %v", i, a.Y[i], b.Y[i])
		}
		for k := range a.X[i] {
			if a.X[i][k] != b.X[i][k] {
				t.Fatalf("feature [%d][%d] differs", i, k)
			}
		}
	}
	c, _ := Generate(GenConfig{Sizes: []int{4}, DrawsPerSize: 2, Seed: 6})
	same := true
	for i := range c.Y {
		if c.Y[i] != a.Y[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

// TestSnapshotFeaturesByVM checks the association-path features.
func TestSnapshotFeaturesByVM(t *testing.T) {
	regions := geo.TestbedSubset(3)
	vms := [][]substrate.VMSpec{
		{substrate.T2Medium, substrate.T2Medium},
		{substrate.T2Medium},
		{substrate.T2Medium},
	}
	sim := netsim.NewSim(netsim.Config{Regions: regions, VMs: vms, Seed: 2, Frozen: true})
	feats, _ := SnapshotFeaturesByVM(sim, simrand.Derive(2, "t"))
	if len(feats) != 4 {
		t.Fatalf("VM feature matrix size %d", len(feats))
	}
	// Intra-DC pair (VM 0, VM 1) must be zero-valued.
	if feats[0][1].SnapshotMbps != 0 {
		t.Error("intra-DC VM pair has features")
	}
	// Cross-DC pair carries the DC-level N and distances.
	pf := feats[0][2]
	if pf.N != 3 || pf.SnapshotMbps <= 0 || pf.DistanceMiles <= 0 {
		t.Errorf("cross-DC VM features: %+v", pf)
	}
}

// TestSnapshotStableCorrelation verifies the premise §2.2 rests on:
// 1-second snapshots have a positive Pearson correlation with the
// stable runtime bandwidths they are used to predict.
func TestSnapshotStableCorrelation(t *testing.T) {
	ds, _ := Generate(GenConfig{Sizes: []int{4, 6, 8}, DrawsPerSize: 4, Seed: 21})
	snaps := make([]float64, ds.Len())
	for i, row := range ds.X {
		snaps[i] = row[FeatSnapBW]
	}
	r := pearson(snaps, ds.Y)
	if r < 0.7 {
		t.Errorf("snapshot-stable Pearson correlation %.3f, want strongly positive (paper: positive)", r)
	}
	t.Logf("Pearson(snapshot, stable) = %.3f over %d pairs", r, ds.Len())
}

// pearson is the Pearson correlation coefficient of two equal-length
// series, or 0 when either series is constant.
func pearson(xs, ys []float64) float64 {
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
