package rf

import (
	"fmt"
	"math"
	"runtime"
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

// TestTrainMatchesReference locks the scratch-slab grower (legacy
// Workers=0 mode) bit-exact against the kept-verbatim reference
// implementation across dataset shapes and hyperparameters — the
// contract that keeps every experiment golden byte-identical.
func TestTrainMatchesReference(t *testing.T) {
	cases := []struct {
		rows, width int
		cfg         Config
	}{
		{40, 6, Config{NumTrees: 12, Seed: 1}},
		{120, 6, Config{NumTrees: 20, Seed: 2}},
		{200, 9, Config{NumTrees: 15, Seed: 3, MaxDepth: 6}},
		{75, 4, Config{NumTrees: 10, Seed: 4, MinLeaf: 5, MinSplit: 12}},
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

		// Warm-start must stay on the same shared stream too.
		extra := randomDataset(tc.rows/2+5, tc.width, uint64(ci)*77+2)
		if err := got.WarmStart(extra, 6); err != nil {
			t.Fatal(err)
		}
		want.oobSum = make([]float64, extra.Len())
		want.oobCount = make([]int, extra.Len())
		want.oobY = append([]float64(nil), extra.Y...)
		want.addTreesReference(extra, 6)
		requireForestsEqual(t, got, want, fmt.Sprintf("case %d warm-start", ci))
	}
}

// TestStreamedTrainInvariance locks the parallel mode's determinism:
// the forest is bit-identical for any worker count and any GOMAXPROCS,
// because every tree owns its RNG stream and the folds happen in tree
// order.
func TestStreamedTrainInvariance(t *testing.T) {
	ds := randomDataset(150, 6, 11)
	cfg := Config{NumTrees: 24, Seed: 9, Workers: 1}
	sequential, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, -1} {
		cfg.Workers = workers
		got, err := Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireForestsEqual(t, got, sequential, fmt.Sprintf("workers=%d", workers))
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		cfg.Workers = 4
		got, err := Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = -1 // GOMAXPROCS-many workers
		gotAuto, err := Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireForestsEqual(t, got, sequential, fmt.Sprintf("GOMAXPROCS=%d workers=4", procs))
		requireForestsEqual(t, gotAuto, sequential, fmt.Sprintf("GOMAXPROCS=%d workers=-1", procs))
	}

	// Warm-start trees derive their streams from the absolute tree
	// index, so parallel warm-starts are schedule-independent too.
	extra := randomDataset(60, 6, 12)
	cfg.Workers = 1
	if err := sequential.WarmStart(extra, 9); err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := parallel.WarmStart(extra, 9); err != nil {
		t.Fatal(err)
	}
	requireForestsEqual(t, parallel, sequential, "warm-start workers=8 vs 1")
}

// TestPredictBatchMatchesReference checks the goroutine fan-out returns
// exactly the sequential loop's bits, on batches small (sequential
// path) and large (parallel path), plus the Into variant.
func TestPredictBatchMatchesReference(t *testing.T) {
	ds := randomDataset(200, 6, 21)
	f, err := Train(ds, Config{NumTrees: 90, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{3, 64, 600} {
		batch := randomDataset(rows, 6, uint64(rows)).X
		want := predictBatchReference(f, batch)
		got := f.PredictBatch(batch)
		dst := make([]float64, rows)
		f.PredictBatchInto(dst, batch)
		for i := range want {
			if got[i] != want[i] || dst[i] != want[i] {
				t.Fatalf("rows=%d: prediction %d differs: %v / %v vs %v", rows, i, got[i], dst[i], want[i])
			}
		}
	}
}

// TestPermIntoMatchesPerm locks the allocation-free permutation against
// the stdlib path it replaces: interleaved calls on twin streams must
// agree, or the legacy training mode would silently drift off the
// golden RNG sequence.
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

func BenchmarkRFTrain(b *testing.B) {
	ds := benchDataset(benchTrainRows, 99)
	// Workers capped at 4 so a many-core laptop stays comparable to the
	// 4-vCPU CI runners, and clamped to GOMAXPROCS so a single core
	// measures the scheme's sequential overhead, not goroutine thrash.
	cfg := Config{NumTrees: 40, Seed: 7, Workers: min(4, runtime.GOMAXPROCS(0))}
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
	dst := make([]float64, len(batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatchInto(dst, batch)
	}
}

func BenchmarkRFPredictBatchReference(b *testing.B) {
	f, err := Train(benchDataset(benchTrainRows, 99), Config{NumTrees: 60, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	batch := benchDataset(512, 1234).X
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictBatchReference(f, batch)
	}
}
