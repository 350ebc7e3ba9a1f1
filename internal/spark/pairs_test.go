package spark

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// The dense forms a stage report carried before its pair list, kept as
// the oracle: the n×n transfer matrices as MigrationMatrix and
// ShuffleMatrix built them, the n×n rate matrix, and the i-major
// price/energy loops and MinShuffleMbps scan over both.

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range m {
		m[i], backing = backing[:n:n], backing[n:]
	}
	return m
}

func migrationMatrixReference(layout []float64, target Placement) [][]float64 {
	n := len(layout)
	t := newMatrix(n)
	total := 0.0
	for _, b := range layout {
		total += b
	}
	if total <= 0 {
		return t
	}
	surplus, deficit := make([]float64, n), make([]float64, n)
	var totalDeficit float64
	for i := 0; i < n; i++ {
		want := total * target[i]
		if layout[i] > want {
			surplus[i] = layout[i] - want
		} else {
			deficit[i] = want - layout[i]
			totalDeficit += deficit[i]
		}
	}
	if totalDeficit <= 0 {
		return t
	}
	for i := 0; i < n; i++ {
		if surplus[i] <= 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if deficit[j] > 0 {
				t[i][j] = surplus[i] * (deficit[j] / totalDeficit)
			}
		}
	}
	return t
}

func shuffleMatrixReference(layout []float64, target Placement) [][]float64 {
	n := len(layout)
	t := newMatrix(n)
	for i := range t {
		for j := 0; j < n; j++ {
			if i != j {
				t[i][j] = layout[i] * target[j]
			}
		}
	}
	return t
}

func transferReference(kind StageKind, layout []float64, target Placement) [][]float64 {
	if kind == MapKind {
		return migrationMatrixReference(layout, target)
	}
	return shuffleMatrixReference(layout, target)
}

// pairRatesReference is the dense rate fold: the last pair of each
// (i, j) wins, recovery-wave pairs included.
func pairRatesReference(n int, pairs []*pendingPair, start float64) [][]float64 {
	pairMbps := newMatrix(n)
	for _, pp := range pairs {
		d := pp.done - start
		if d > 0 {
			pairMbps[pp.i][pp.j] = pp.bytes * 8 / 1e6 / d
		}
	}
	return pairMbps
}

// networkReference is price's and energy's network half over dense
// per-stage transfer matrices.
func networkReference(e *Engine, stages [][][]float64) (usd, kwh, kg float64) {
	regions := e.sim.Regions()
	for _, m := range stages {
		for i := range m {
			for j := range m[i] {
				if i != j {
					usd += m[i][j] / 1e9 * e.rates.EgressPerGBFor(regions[i])
					k := e.energyRates.NetworkKWh(m[i][j])
					kwh += k
					kg += k * e.energyRates.IntensityFor(regions[i]) / 1000
				}
			}
		}
	}
	return usd, kwh, kg
}

// minShuffleReference is the dense MinShuffleMbps scan.
func minShuffleReference(bytes, mbps [][][]float64) float64 {
	low := math.Inf(1)
	for s := range bytes {
		for i := range mbps[s] {
			for j := range mbps[s][i] {
				if bytes[s][i][j] >= 1<<20 && mbps[s][i][j] > 0 && mbps[s][i][j] < low {
					low = mbps[s][i][j]
				}
			}
		}
	}
	if math.IsInf(low, 1) {
		return 0
	}
	return low
}

// pairsOfDense reads a dense matrix into the list a stage report
// carries: its non-zero off-diagonal entries, i-major.
func pairsOfDense(m [][]float64) []PairStat {
	var out []PairStat
	for i := range m {
		for j, b := range m[i] {
			if b != 0 && i != j {
				out = append(out, PairStat{I: int32(i), J: int32(j), Bytes: b})
			}
		}
	}
	return out
}

// mbpsOf scatters a pair list's rates into an n×n matrix.
func mbpsOf(n int, pairs []PairStat) [][]float64 {
	m := newMatrix(n)
	for _, ps := range pairs {
		m[ps.I][ps.J] = ps.Mbps
	}
	return m
}

func sameBits(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// samePlanned reports whether two pair lists hold the same pairs and
// bytes, bit for bit, in the same order.
func samePlanned(a, b []PairStat) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].I != b[k].I || a[k].J != b[k].J || math.Float64bits(a[k].Bytes) != math.Float64bits(b[k].Bytes) {
			return false
		}
	}
	return true
}

// randomLayout draws a stage input over n DCs: a few hot DCs, zero rows
// everywhere else, and often one sub-byte row, whose every transfer
// entry is priced but never launched.
func randomLayout(rng *simrand.Source, n int) []float64 {
	layout := make([]float64, n)
	for k := 1 + rng.IntN(min(n, 6)); k > 0; k-- {
		layout[rng.IntN(n)] = rng.Uniform(1e6, 4e9)
	}
	if rng.Bool(0.5) {
		layout[rng.IntN(n)] = rng.Uniform(0, 2)
	}
	return layout
}

// randomPlacement draws a placement for layout: a locality placement
// (a migration with at most rounding surplus), everything on the first
// resident DC (a migration with no surplus when that is the only one),
// or a few random DCs with now and then a fraction small enough to make
// sub-byte entries.
func randomPlacement(rng *simrand.Source, layout []float64) Placement {
	n := len(layout)
	p := make(Placement, n)
	switch {
	case rng.Bool(0.2):
		return LocalityPlacement(layout)
	case rng.Bool(0.15):
		for i := range layout {
			if layout[i] > 0 {
				p[i] = 1
				return p
			}
		}
	}
	for k := 1 + rng.IntN(min(n, 8)); k > 0; k-- {
		p[rng.IntN(n)] = rng.Uniform(0.01, 1)
	}
	if rng.Bool(0.3) {
		p[rng.IntN(n)] = 1e-12
	}
	return p.Normalize()
}

// TestTransferMatchesDenseReference checks both sinks of the transfer
// generator against the dense builders they replaced, bit for bit:
// MigrationMatrix and ShuffleMatrix equal them entry for entry, and a
// stage's pair list is exactly their non-zero off-diagonal entries,
// i-major, at exact length.
func TestTransferMatchesDenseReference(t *testing.T) {
	for _, n := range []int{3, 8, 100} {
		rng := simrand.Derive(uint64(n), "transfer-reference")
		s := &JobSet{}
		for trial := 0; trial < 200; trial++ {
			layout := randomLayout(rng, n)
			p := randomPlacement(rng, layout)
			for _, kind := range []StageKind{MapKind, ReduceKind} {
				want := transferReference(kind, layout, p)
				dense := ShuffleMatrix(layout, p)
				if kind == MapKind {
					dense = MigrationMatrix(layout, p)
				}
				if !sameBits(dense, want) {
					t.Fatalf("n=%d trial %d: %v matrix differs from the dense reference", n, trial, kind)
				}
				got := s.plannedPairs(kind, layout, p)
				if !samePlanned(got, pairsOfDense(want)) || cap(got) != len(got) {
					t.Fatalf("n=%d trial %d: %v pair list (len %d cap %d) is not the reference's non-zero entries (%d)",
						n, trial, kind, len(got), cap(got), len(pairsOfDense(want)))
				}
			}
		}
	}
}

// TestPairRatesPlannedOnly checks the rate rule against the dense fold:
// with only planned pairs the two agree bit for bit, and a recovery
// wave's pairs, which carry only re-routed bytes, write no rate.
func TestPairRatesPlannedOnly(t *testing.T) {
	const start = 40.0
	for _, n := range []int{3, 8, 100} {
		rng := simrand.Derive(uint64(n), "pair-rates")
		for trial := 0; trial < 50; trial++ {
			layout := randomLayout(rng, n)
			stats := pairsOf(layout, randomPlacement(rng, layout))
			var planned, all []*pendingPair
			for k, ps := range stats {
				if ps.Bytes < 1 {
					continue
				}
				pp := &pendingPair{i: int(ps.I), j: int(ps.J), idx: k, bytes: ps.Bytes}
				if !rng.Bool(0.1) { // else its flows failed and it never finished
					pp.done = start + rng.Uniform(0, 100)
				}
				planned = append(planned, pp)
			}
			all = append(all, planned...)
			for _, pp := range planned {
				if rng.Bool(0.2) {
					all = append(all, &pendingPair{i: pp.i, j: pp.j, idx: -1,
						bytes: pp.bytes * rng.Uniform(0, 0.5), done: start + rng.Uniform(0, 100)})
				}
			}
			pairRates(stats, all, start)
			if got, want := mbpsOf(n, stats), pairRatesReference(n, planned, start); !sameBits(got, want) {
				t.Fatalf("n=%d trial %d: rates differ from the dense fold over the planned pairs", n, trial)
			}
		}
	}
}

// randSched places every stage at random (randomPlacement) and records
// the layout each stage was placed over.
type randSched struct {
	rng     *simrand.Source
	layouts [][]float64
}

func (*randSched) Name() string { return "test-random" }
func (r *randSched) Place(_ int, _ Stage, layout []float64) Placement {
	r.layouts = append(r.layouts, append([]float64(nil), layout...))
	return randomPlacement(r.rng, layout)
}

// TestStageReportsMatchDenseFold runs random fault-free jobs at
// n ∈ {3, 8, 100} and checks what the stage reports' pair lists feed
// against the dense fold over the matrices the runner used to build:
// NetworkUSD, NetworkKWh, NetworkKgCO2 and MinShuffleMbps bit for bit.
func TestStageReportsMatchDenseFold(t *testing.T) {
	for _, n := range []int{3, 8, 100} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				rng := simrand.Derive(seed, "dense-fold")
				var sim *netsim.Sim
				if n > 8 {
					sim = netsim.NewSim(netsim.FleetCluster(n, 1, substrate.T2Medium, seed))
				} else {
					sim = frozenSim(n, seed)
				}
				eng := NewEngine(sim, cost.DefaultRates())
				third := StageKind(rng.IntN(2))
				job := Job{Name: "random", InputBytes: randomLayout(rng, n), Stages: []Stage{
					{Name: "m", Kind: MapKind, SecPerGB: 1, Selectivity: rng.Uniform(0.5, 1)},
					{Name: "r", Kind: ReduceKind, SecPerGB: 1, Selectivity: rng.Uniform(0.5, 1)},
					{Name: "x", Kind: third, SecPerGB: 1, Selectivity: 1},
				}}
				sched := &randSched{rng: rng.Derive("sched")}
				res, err := eng.RunJob(job, sched, UniformConn{K: 2})
				if err != nil {
					t.Fatal(err)
				}
				bytes := make([][][]float64, len(res.Stages))
				mbps := make([][][]float64, len(res.Stages))
				for s, st := range res.Stages {
					bytes[s] = transferReference(job.Stages[s].Kind, sched.layouts[s], st.Placement)
					if !samePlanned(st.Pairs, pairsOfDense(bytes[s])) {
						t.Fatalf("stage %d: pair list is not the dense transfer's non-zero entries", s)
					}
					mbps[s] = mbpsOf(n, st.Pairs)
				}
				usd, kwh, kg := networkReference(eng, bytes)
				if res.Cost.NetworkUSD != usd || res.Energy.NetworkKWh != kwh || res.Energy.NetworkKgCO2 != kg {
					t.Errorf("network account %v USD %v kWh %v kg, dense fold %v / %v / %v",
						res.Cost.NetworkUSD, res.Energy.NetworkKWh, res.Energy.NetworkKgCO2, usd, kwh, kg)
				}
				if want := minShuffleReference(bytes, mbps); res.MinShuffleMbps != want {
					t.Errorf("MinShuffleMbps %v, dense scan %v", res.MinShuffleMbps, want)
				}
			})
		}
	}
}

var matrixSink [][]float64

// TestTransferMatrixAllocs pins the dense forms at their allocation
// counts before the pair list: MigrationMatrix 4 (the matrix's row
// headers and one backing array, plus its surplus and deficit factor
// vectors), ShuffleMatrix 2.
func TestTransferMatrixAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	layout := []float64{5e9, 1e9, 0, 2e9, 0, 0, 3e9, 0}
	p := Placement{0.1, 0.2, 0.3, 0, 0.1, 0.1, 0.1, 0.1}
	if got := testing.AllocsPerRun(100, func() { matrixSink = MigrationMatrix(layout, p) }); got != 4 {
		t.Errorf("MigrationMatrix makes %v allocations, want 4", got)
	}
	if got := testing.AllocsPerRun(100, func() { matrixSink = ShuffleMatrix(layout, p) }); got != 2 {
		t.Errorf("ShuffleMatrix makes %v allocations, want 2", got)
	}
}

// hotJob is a map and a reduce stage over an input resident, unevenly,
// on DCs 0..5 of an n-DC cluster.
func hotJob(n int) Job {
	input := make([]float64, n)
	for i := 0; i < 6; i++ {
		input[i] = float64(i+1) * 1e9
	}
	return Job{Name: "hot", InputBytes: input, Stages: []Stage{
		{Name: "scan", Kind: MapKind, SecPerGB: 2, Selectivity: 1},
		{Name: "sort", Kind: ReduceKind, SecPerGB: 4, Selectivity: 1},
	}}
}

// hotSched spreads every stage evenly over DCs 0..5, so the map stage
// migrates and the reduce stage shuffles among those six.
type hotSched struct{}

func (hotSched) Name() string { return "test-hot" }
func (hotSched) Place(_ int, _ Stage, layout []float64) Placement {
	p := make(Placement, len(layout))
	for i := 0; i < 6; i++ {
		p[i] = 1.0 / 6
	}
	return p
}

var pairSink []PairStat

// TestStageReportAllocIndependentOfN runs the same 6-hot-DC job on a
// 24-DC and a 100-DC frozen fleet: each stage's report list is exactly
// as long as its transfer's non-zero pairs, and building it allocates
// the same bytes at both sizes.
func TestStageReportAllocIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	const runs = 100
	perStage := func(n int) (pairs []int, bytes []uint64) {
		sim := netsim.NewSim(netsim.FleetCluster(n, 1, substrate.T2Medium, 3))
		eng := NewEngine(sim, cost.DefaultRates())
		job := hotJob(n)
		res, err := eng.RunJob(job, hotSched{}, SingleConn{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewJobSet(eng, []JobRun{{Job: job, Sched: hotSched{}}})
		if err != nil {
			t.Fatal(err)
		}
		layout := append([]float64(nil), job.InputBytes...)
		for si, st := range res.Stages {
			if len(st.Pairs) == 0 || cap(st.Pairs) != len(st.Pairs) {
				t.Fatalf("n=%d stage %d: %d pairs in a list of capacity %d", n, si, len(st.Pairs), cap(st.Pairs))
			}
			kind := job.Stages[si].Kind
			pairSink = s.plannedPairs(kind, layout, st.Placement) // sizes the scratch once
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for k := 0; k < runs; k++ {
				pairSink = s.plannedPairs(kind, layout, st.Placement)
			}
			runtime.ReadMemStats(&after)
			pairs = append(pairs, len(st.Pairs))
			bytes = append(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
			for j := range layout { // the next stage's input, as the runner lays it out
				layout[j] = job.TotalInputBytes() * st.Placement[j]
			}
		}
		return pairs, bytes
	}
	p24, b24 := perStage(24)
	p100, b100 := perStage(100)
	for s := range p24 {
		if p24[s] != p100[s] || b24[s] != b100[s] || b24[s] == 0 {
			t.Errorf("stage %d: %d pairs / %d report bytes at n=24, %d / %d at n=100",
				s, p24[s], b24[s], p100[s], b100[s])
		}
	}
}

// BenchmarkJobSetSparse runs the 6-hot-DC job (one map stage, one
// reduce stage) on a frozen 100-DC fleet, the shape of the fleet
// workloads, where the stage reports follow the 30 busy pairs, not n².
func BenchmarkJobSetSparse(b *testing.B) {
	const n = 100
	eng := NewEngine(netsim.NewSim(netsim.FleetCluster(n, 1, substrate.T2Medium, 3)), cost.DefaultRates())
	job := hotJob(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunJobSet([]JobRun{{Job: job, Sched: hotSched{}}}); err != nil {
			b.Fatal(err)
		}
	}
}
