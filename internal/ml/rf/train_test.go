package rf

import (
	"fmt"
	"math"
	"testing"

	"github.com/wanify/wanify/internal/simrand"
)

// randomDataset builds a dataset with the given shape from a named
// stream, including duplicate feature values and constant-label pockets
// so the tie-handling branches of the split scan are exercised.
func randomDataset(rows, width int, seed uint64) Dataset {
	rng := simrand.Derive(seed, "rf-eqtest")
	ds := Dataset{X: make([][]float64, rows), Y: make([]float64, rows)}
	for i := range ds.X {
		row := make([]float64, width)
		for j := range row {
			switch rng.IntN(4) {
			case 0:
				row[j] = float64(rng.IntN(5)) // heavy ties
			default:
				row[j] = rng.Uniform(-100, 1500)
			}
		}
		ds.X[i] = row
		if rng.Bool(0.15) {
			ds.Y[i] = 42 // constant-label pocket
		} else {
			ds.Y[i] = row[0]*3 - row[width-1]*0.5 + rng.Norm(0, 10)
		}
	}
	return ds
}

// requireForestsEqual compares two forests bit for bit: tree structure,
// split constants, feature gains and OOB bookkeeping.
func requireForestsEqual(t *testing.T, a, b *Forest, label string) {
	t.Helper()
	if len(a.trees) != len(b.trees) {
		t.Fatalf("%s: %d vs %d trees", label, len(a.trees), len(b.trees))
	}
	for k := range a.trees {
		ta, tb := a.trees[k], b.trees[k]
		if len(ta.nodes) != len(tb.nodes) {
			t.Fatalf("%s: tree %d has %d vs %d nodes", label, k, len(ta.nodes), len(tb.nodes))
		}
		for ni := range ta.nodes {
			if ta.nodes[ni] != tb.nodes[ni] {
				t.Fatalf("%s: tree %d node %d differs: %+v vs %+v", label, k, ni, ta.nodes[ni], tb.nodes[ni])
			}
		}
		for fi := range ta.featGain {
			if ta.featGain[fi] != tb.featGain[fi] {
				t.Fatalf("%s: tree %d featGain[%d] %v vs %v", label, k, fi, ta.featGain[fi], tb.featGain[fi])
			}
		}
	}
	for i := range a.oobSum {
		if a.oobSum[i] != b.oobSum[i] || a.oobCount[i] != b.oobCount[i] {
			t.Fatalf("%s: OOB row %d differs: (%v,%d) vs (%v,%d)",
				label, i, a.oobSum[i], a.oobCount[i], b.oobSum[i], b.oobCount[i])
		}
	}
	if a.OOBRMSE() != b.OOBRMSE() {
		t.Fatalf("%s: OOBRMSE %v vs %v", label, a.OOBRMSE(), b.OOBRMSE())
	}
}

// TestTrainMatchesReference locks the scratch-slab grower bit-exact
// against the kept-verbatim reference
// implementation across dataset shapes and hyperparameters — the
// contract that keeps every experiment golden byte-identical.
func TestTrainMatchesReference(t *testing.T) {
	cases := []struct {
		rows, width int
		cfg         Config
	}{
		{40, 6, Config{NumTrees: 12, Seed: 1}},
		{120, 6, Config{NumTrees: 20, Seed: 2}},
		{200, 9, Config{NumTrees: 15, Seed: 3}},
		{75, 4, Config{NumTrees: 10, Seed: 4}},
		{55, 7, Config{NumTrees: 8, Seed: 5, MaxFeatures: 7}},
		{30, 3, Config{NumTrees: 25, Seed: 6, MaxFeatures: 1}},
	}
	for ci, tc := range cases {
		ds := randomDataset(tc.rows, tc.width, uint64(ci)*77+1)
		got, err := Train(ds, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trainReference(ds, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireForestsEqual(t, got, want, fmt.Sprintf("case %d", ci))
	}
}

// TestPermIntoMatchesPerm locks the allocation-free permutation against
// the stdlib path it replaces: interleaved calls on twin streams must
// agree, or training would silently drift off the golden RNG
// sequence.
func TestPermIntoMatchesPerm(t *testing.T) {
	a := simrand.Derive(5, "perm")
	b := simrand.Derive(5, "perm")
	buf := make([]int, 16)
	for round := 0; round < 200; round++ {
		n := 1 + round%16
		want := a.Perm(n)
		got := b.PermInto(buf[:n])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: PermInto %v != Perm %v", round, got, want)
			}
		}
		// Interleave other draws so stream positions must stay aligned.
		if a.IntN(7) != b.IntN(7) {
			t.Fatalf("round %d: streams desynchronized", round)
		}
	}
}

// benchTrainRows sizes the synthetic training set near the experiment
// suite's real one (6 sizes × 8 sessions × ~n(n-1) pairs ≈ 300 rows).
const benchTrainRows = 360

// benchDataset builds a deterministic synthetic regression set shaped
// like the Table 3 features (cluster size, snapshot BW, memory, CPU,
// retransmissions, distance) with a nonlinear noisy label.
func benchDataset(rows int, seed uint64) Dataset {
	rng := simrand.Derive(seed, "rf-bench")
	ds := Dataset{X: make([][]float64, rows), Y: make([]float64, rows)}
	for i := range ds.X {
		n := float64(2 + rng.IntN(7))
		snap := rng.Uniform(20, 1500)
		mem := rng.Float64()
		cpu := rng.Float64()
		retr := rng.Uniform(0, 40)
		dist := rng.Uniform(100, 9000)
		ds.X[i] = []float64{n, snap, mem, cpu, retr, dist}
		ds.Y[i] = snap*(0.6+0.3*math.Sin(dist/1500)) - 80*cpu - 40*mem - 2*retr + rng.Norm(0, 25)
	}
	return ds
}

// BenchmarkRFTrain times Train on the same forest
// BenchmarkRFTrainReference grows with the kept-verbatim reference, so
// the pair isolates what the scratch-slab grower saves.
func BenchmarkRFTrain(b *testing.B) {
	ds := benchDataset(benchTrainRows, 99)
	cfg := Config{NumTrees: 40, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRFTrainReference(b *testing.B) {
	ds := benchDataset(benchTrainRows, 99)
	cfg := Config{NumTrees: 40, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainReference(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRFPredictBatch(b *testing.B) {
	f, err := Train(benchDataset(benchTrainRows, 99), Config{NumTrees: 60, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	batch := benchDataset(512, 1234).X
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatch(batch)
	}
}

// TestPredictBatchMatchesPredict locks the tree-major batch against the
// row-at-a-time Predict bit for bit on random forests of several
// widths and sizes, into a fresh, a reused (dirty) and a too-short dst;
// a batch holding one row of the wrong width panics like Predict.
func TestPredictBatchMatchesPredict(t *testing.T) {
	for _, c := range []struct{ rows, width, trees int }{{60, 3, 1}, {200, 6, 25}, {150, 9, 60}} {
		ds := randomDataset(c.rows, c.width, uint64(c.trees))
		f, err := Train(ds, Config{NumTrees: c.trees, Seed: uint64(c.width)})
		if err != nil {
			t.Fatal(err)
		}
		batch := randomDataset(97, c.width, uint64(c.rows)).X
		dirty := make([]float64, 200)
		for i := range dirty {
			dirty[i] = math.NaN()
		}
		for _, dst := range [][]float64{nil, dirty, make([]float64, 3)} {
			got := f.PredictBatchInto(dst, batch)
			if len(got) != len(batch) {
				t.Fatalf("%d trees: %d predictions for %d rows", c.trees, len(got), len(batch))
			}
			for k, x := range batch {
				if want := f.Predict(x); math.Float64bits(got[k]) != math.Float64bits(want) {
					t.Fatalf("%d trees, width %d, row %d: batch %v, Predict %v", c.trees, c.width, k, got[k], want)
				}
			}
		}
		bad := append([][]float64{batch[0]}, batch[1][:c.width-1])
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d: no panic on a batch row of width %d", c.width, c.width-1)
				}
			}()
			f.PredictBatchInto(nil, bad)
		}()
	}
}
