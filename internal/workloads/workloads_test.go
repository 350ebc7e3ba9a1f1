package workloads

import (
	"math"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// TestUniformInput checks even spreading.
func TestUniformInput(t *testing.T) {
	in := UniformInput(8, 100e9)
	sum := 0.0
	for _, b := range in {
		if b != 12.5e9 {
			t.Errorf("share %v, want 12.5e9", b)
		}
		sum += b
	}
	if sum != 100e9 {
		t.Errorf("total %v", sum)
	}
}

// TestSkewedInput checks hot/cold distribution.
func TestSkewedInput(t *testing.T) {
	in := SkewedInput(8, 600e6, []int{0, 1, 2, 3}, 0.95)
	hot := in[0] + in[1] + in[2] + in[3]
	if math.Abs(hot-570e6) > 1 {
		t.Errorf("hot share %v, want 570e6", hot)
	}
	if math.Abs(in[4]-7.5e6) > 1 {
		t.Errorf("cold share %v, want 7.5e6", in[4])
	}
	total := 0.0
	for _, b := range in {
		total += b
	}
	if math.Abs(total-600e6) > 1 {
		t.Errorf("total %v", total)
	}
}

// TestSkewedInputConservesTotal checks that every byte lands on some
// DC, whatever the hot set: one hot DC, several, duplicates, and every
// DC hot (where the hot DCs must take the whole total, not hotShare of
// it).
func TestSkewedInputConservesTotal(t *testing.T) {
	const n, total = 4, 1e9
	for _, hot := range [][]int{{0}, {1, 3}, {2, 2}, {0, 1, 2}, {0, 1, 2, 3}, {3, 2, 1, 0, 1}} {
		for _, share := range []float64{0, 0.3, 0.8, 0.95, 1} {
			sum := 0.0
			for dc, b := range SkewedInput(n, total, hot, share) {
				if !(b >= 0) {
					t.Errorf("hot %v share %v: DC %d holds %v bytes", hot, share, dc, b)
				}
				sum += b
			}
			if math.Abs(sum-total) > 1e-9*total {
				t.Errorf("hot %v share %v: input sums to %v, want %v", hot, share, sum, total)
			}
		}
	}
}

// TestSkewWeights checks the ws conversion: mean 1, proportional to
// data share.
func TestSkewWeights(t *testing.T) {
	in := []float64{300, 100, 0, 0}
	ws := SkewWeights(in)
	if ws[0] != 3 || ws[1] != 1 || ws[2] != 0 {
		t.Errorf("ws = %v", ws)
	}
	mean := (ws[0] + ws[1] + ws[2] + ws[3]) / 4
	if mean != 1 {
		t.Errorf("mean weight %v", mean)
	}
	flat := SkewWeights([]float64{0, 0})
	if flat[0] != 1 || flat[1] != 1 {
		t.Errorf("degenerate ws = %v", flat)
	}
}

// TestTeraSortShape checks the job profile: full-data shuffle.
func TestTeraSortShape(t *testing.T) {
	job := TeraSort(UniformInput(4, 10e9))
	if err := job.Validate(4); err != nil {
		t.Fatal(err)
	}
	if len(job.Stages) != 2 {
		t.Fatalf("%d stages", len(job.Stages))
	}
	if job.Stages[0].Kind != spark.MapKind || job.Stages[1].Kind != spark.ReduceKind {
		t.Error("stage kinds wrong")
	}
	if job.Stages[0].Selectivity != 1.0 {
		t.Error("TeraSort must shuffle its full input")
	}
}

// TestWordCountShuffleControl checks the paper's §5.3.2 mechanism: the
// shuffle volume is pinned regardless of input size.
func TestWordCountShuffleControl(t *testing.T) {
	in := UniformInput(8, 400e6)
	job := WordCount(in, 7.4e6)
	sel := job.Stages[0].Selectivity
	if math.Abs(sel*400e6-7.4e6) > 1 {
		t.Errorf("selectivity %v does not pin shuffle to 7.4 MB", sel)
	}
}

// TestTPCDSProfiles checks all four paper queries exist with the
// documented weight ordering (82 light ... 78 heavy).
func TestTPCDSProfiles(t *testing.T) {
	in := UniformInput(8, 100e9)
	var shuffles []float64
	for _, q := range TPCDSQueries() {
		job, err := TPCDS(q, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Validate(8); err != nil {
			t.Fatal(err)
		}
		// First-exchange volume = input x map selectivity.
		shuffles = append(shuffles, 100e9*job.Stages[0].Selectivity)
	}
	// Order is 82, 95, 11, 78: strictly increasing shuffle volume.
	for i := 1; i < len(shuffles); i++ {
		if shuffles[i] <= shuffles[i-1] {
			t.Errorf("query weights not increasing: %v", shuffles)
		}
	}
	if _, err := TPCDS(99, in); err == nil {
		t.Error("unknown query accepted")
	}
}

// TestAllocateBits checks the SAGQ allocation rule: weak believed links
// get few bits, the accuracy budget lifts the strongest links first,
// and NoQ (nil matrix) disables quantization.
func TestAllocateBits(t *testing.T) {
	if allocateBits(nil, 0, 16) != nil {
		t.Error("nil believed should mean NoQ")
	}
	b := bwmatrix.New(4)
	// Links to master (DC0): DC1 strong, DC2 mid, DC3 weak.
	b[1][0], b[2][0], b[3][0] = 900, 300, 60
	bits := allocateBits(b, 0, 4) // tiny budget: no raising needed
	if bits[0] != 32 {
		t.Errorf("master bits %d", bits[0])
	}
	if bits[1] != 32 || bits[3] != 4 {
		t.Errorf("bits = %v: strong link should stay 32, weak drop to 4", bits)
	}
	if bits[2] >= bits[1] || bits[2] <= bits[3] {
		t.Errorf("mid link bits %d not between weak and strong", bits[2])
	}

	// A high budget raises precisions, strongest-believed first.
	raised := allocateBits(b, 0, 30)
	mean := float64(raised[1]+raised[2]+raised[3]) / 3
	if mean < 30-8 { // one step of quantization slack
		t.Errorf("budget not enforced: bits %v mean %.1f", raised, mean)
	}
}

// TestQuantizedTrainingRuns executes a short training loop end to end
// and checks the variant ordering: quantized training beats NoQ on both
// time and cost.
func TestQuantizedTrainingRuns(t *testing.T) {
	rates := cost.DefaultRates()
	run := func(believed bwmatrix.Matrix) MLResult {
		cfg := netsim.UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, 5)
		cfg.Frozen = true
		sim := netsim.NewSim(cfg)
		mc := MLConfig{Epochs: 3, ModelBytes: 100e6, ComputeSecPerEpoch: 5, MasterDC: 0, MinMeanBits: 12}
		res, err := RunQuantizedTraining(sim, rates, believed, spark.SingleConn{}, mc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noq := run(nil)
	believed := bwmatrix.New(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				believed[i][j] = 100 // everything believed weak -> heavy quantization
			}
		}
	}
	quant := run(believed)
	if quant.TrainSeconds >= noq.TrainSeconds {
		t.Errorf("quantized %.1fs not faster than NoQ %.1fs", quant.TrainSeconds, noq.TrainSeconds)
	}
	if quant.Cost.Total() >= noq.Cost.Total() {
		t.Errorf("quantized $%.3f not cheaper than NoQ $%.3f", quant.Cost.Total(), noq.Cost.Total())
	}
	if len(noq.BitsPerDC) != 4 || noq.BitsPerDC[1] != 32 {
		t.Errorf("NoQ bits %v", noq.BitsPerDC)
	}
}
