package gda

import (
	"fmt"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
)

// randomPlanningProblem builds a cluster description, believed matrix
// and layout of size n from a named stream, deliberately including the
// hostile cases: blackout (0 Mbps) and garbage (negative) believed
// links, empty DCs, zero compute rates and tied bandwidth values.
func randomPlanningProblem(n int, seed uint64) (ClusterInfo, bwmatrix.Matrix, []float64) {
	rng := simrand.Derive(seed, "gda-eqtest")
	ci := ClusterInfo{
		Regions:      make([]geo.Region, n), // placeholders; the search reads only rates
		ComputeRates: make([]float64, n),
		EgressPerGB:  make([]float64, n),
	}
	believed := bwmatrix.New(n)
	layout := make([]float64, n)
	for i := 0; i < n; i++ {
		switch rng.IntN(5) {
		case 0:
			ci.ComputeRates[i] = 0 // exercises the 1e-6 rate floor
		default:
			ci.ComputeRates[i] = rng.Uniform(0.5, 6)
		}
		ci.EgressPerGB[i] = rng.Uniform(0.01, 0.2)
		if rng.Bool(0.2) {
			layout[i] = 0 // empty DC
		} else {
			layout[i] = rng.Uniform(0.1, 50) * 1e9
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			switch rng.IntN(8) {
			case 0:
				believed[i][j] = 0 // believed blackout
			case 1:
				believed[i][j] = -3 // stale/garbage measurement
			case 2:
				believed[i][j] = 500 // ties across pairs
			default:
				believed[i][j] = rng.Uniform(10, 1500)
			}
		}
	}
	return ci, believed, layout
}

// TestPlaceMatchesReference locks the delta-evaluated search bit-exact
// against the kept-verbatim reference: for randomized clusters of every
// size (hostile believed matrices included), Tetrium, Kimchi and
// Iridium must return element-for-element identical placements on both
// map and reduce stages. This is the contract that keeps the
// scheduler-comparison goldens byte-identical.
func TestPlaceMatchesReference(t *testing.T) {
	stages := []spark.Stage{
		{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5},
		{Name: "r", Kind: spark.ReduceKind, SecPerGB: 1.5, Selectivity: 1},
		{Name: "r0", Kind: spark.ReduceKind, SecPerGB: 0, Selectivity: 1}, // network-only
	}
	for n := 2; n <= 8; n++ {
		for trial := 0; trial < 6; trial++ {
			ci, believed, layout := randomPlanningProblem(n, uint64(n*100+trial))

			for _, stage := range stages {
				label := fmt.Sprintf("n=%d trial=%d stage=%s", n, trial, stage.Name)

				tet := Tetrium{Believed: believed, Info: ci}
				got := tet.Place(0, stage, layout)
				want := placeTetriumReference(tet, stage, layout)
				requirePlacementsEqual(t, got, want, label+" tetrium")

				kim := Kimchi{Believed: believed, Info: ci, Slack: 0.1 + 0.05*float64(trial%3)}
				got = kim.Place(0, stage, layout)
				want = placeKimchiReference(kim, stage, layout)
				requirePlacementsEqual(t, got, want, label+" kimchi")

				ir := Iridium{Believed: believed, Info: ci}
				got = ir.Place(0, stage, layout)
				want = placeIridiumReference(ir, stage, layout)
				requirePlacementsEqual(t, got, want, label+" iridium")
			}
		}
	}
}

// fleetPlanningProblem builds a fleet-shaped problem: n DCs but data on
// only nz of them, the mostly-zero layouts the sparse search rows are
// built for. Hostile believed entries (blackouts, garbage) are kept in
// the mix.
func fleetPlanningProblem(n, nz int, seed uint64) (ClusterInfo, bwmatrix.Matrix, []float64) {
	rng := simrand.Derive(seed, "gda-fleet-eqtest")
	ci := ClusterInfo{
		Regions:      make([]geo.Region, n),
		ComputeRates: make([]float64, n),
		EgressPerGB:  make([]float64, n),
	}
	believed := bwmatrix.New(n)
	for i := 0; i < n; i++ {
		if rng.IntN(6) == 0 {
			ci.ComputeRates[i] = 0
		} else {
			ci.ComputeRates[i] = rng.Uniform(0.5, 6)
		}
		ci.EgressPerGB[i] = rng.Uniform(0.01, 0.2)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			switch rng.IntN(10) {
			case 0:
				believed[i][j] = 0
			case 1:
				believed[i][j] = -3
			default:
				believed[i][j] = rng.Uniform(10, 1500)
			}
		}
	}
	layout := make([]float64, n)
	for _, i := range rng.Perm(n)[:nz] {
		layout[i] = rng.Uniform(0.5, 50) * 1e9
	}
	return ci, believed, layout
}

// TestPlaceMatchesReferenceFleetSparse extends the equivalence lock
// past the paper's n=8 to fleet-shaped sparse problems: randomized
// clusters up to n=64 with data on only a handful of DCs, where the
// search iterates its nzRows fast paths. Every scheduler must still
// return element-for-element identical placements to the dense
// reference on map and reduce stages.
func TestPlaceMatchesReferenceFleetSparse(t *testing.T) {
	stages := []spark.Stage{
		{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5},
		{Name: "r", Kind: spark.ReduceKind, SecPerGB: 1.5, Selectivity: 1},
	}
	type dims struct{ n, nz, trials int }
	for _, d := range []dims{{12, 3, 2}, {24, 4, 2}, {48, 5, 1}, {64, 6, 1}} {
		for trial := 0; trial < d.trials; trial++ {
			ci, believed, layout := fleetPlanningProblem(d.n, d.nz+trial, uint64(d.n*1000+trial))

			// The dense reference is O(n⁴) per descent; past n=24 run
			// the reduce stage only to keep the suite fast (the map
			// path's sparse handling is covered at 12 and 24).
			checkStages := stages
			if d.n > 24 {
				checkStages = stages[1:]
			}
			for _, stage := range checkStages {
				// Cases are independent pure calls: run them in parallel.
				t.Run(fmt.Sprintf("n=%d nz=%d trial=%d stage=%s", d.n, d.nz+trial, trial, stage.Name), func(t *testing.T) {
					t.Parallel()

					tet := Tetrium{Believed: believed, Info: ci}
					got := tet.Place(0, stage, layout)
					want := placeTetriumReference(tet, stage, layout)
					requirePlacementsEqual(t, got, want, "tetrium")

					if d.n > 24 {
						// The dense reference alone costs seconds at these
						// sizes; Tetrium covers the shared descent machinery.
						return
					}
					kim := Kimchi{Believed: believed, Info: ci, Slack: 0.1 + 0.05*float64(trial%3)}
					got = kim.Place(0, stage, layout)
					want = placeKimchiReference(kim, stage, layout)
					requirePlacementsEqual(t, got, want, "kimchi")

					ir := Iridium{Believed: believed, Info: ci}
					got = ir.Place(0, stage, layout)
					want = placeIridiumReference(ir, stage, layout)
					requirePlacementsEqual(t, got, want, "iridium")
				})
			}
		}
	}
}

func requirePlacementsEqual(t *testing.T, got, want spark.Placement, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d differs: %v vs %v\n got %v\nwant %v", label, i, got[i], want[i], got, want)
		}
	}
}

// TestSearchAggregatesMatchEstimateDetail checks the invariant the
// Kimchi budget threading rests on: after a descent, the context's
// cached (secs, loadSum, usd) are bit-equal to a fresh estimateDetail
// of the final placement.
func TestSearchAggregatesMatchEstimateDetail(t *testing.T) {
	for n := 2; n <= 8; n += 2 {
		ci, believed, layout := randomPlanningProblem(n, uint64(n)*7+3)

		est := estimator{believed: believed, info: ci}
		for _, stage := range []spark.Stage{
			{Name: "m", Kind: spark.MapKind, SecPerGB: 2, Selectivity: 1},
			{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1},
		} {
			s := getSearch(est, stage, layout)
			s.descend(spark.UniformPlacement(n), JCT{})
			secs, load, usd := est.estimateDetail(stage, layout, s.p)
			if s.agg.Secs != secs || s.agg.LoadSum != load || s.agg.USD != usd {
				t.Fatalf("n=%d %s: cached aggregates (%v,%v,%v) != fresh (%v,%v,%v)",
					n, stage.Name, s.agg.Secs, s.agg.LoadSum, s.agg.USD, secs, load, usd)
			}
			putSearch(s)
		}
	}
}

// TestPlaceSteadyStateAllocs checks the pooled context reaches a small
// constant allocation count per Place (starts and the returned
// placement only — no per-candidate garbage).
func TestPlaceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	ci, believed, layout := randomPlanningProblem(8, 99)

	stage := spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}
	tet := Tetrium{Believed: believed, Info: ci}
	tet.Place(0, stage, layout) // warm the pool
	avg := testing.AllocsPerRun(20, func() { tet.Place(0, stage, layout) })
	// Reference needs thousands of allocations per Place (a fresh
	// candidate slice per move evaluation plus a rebuilt matrix per
	// estimate); the context needs a handful of fixed ones.
	if avg > 12 {
		t.Fatalf("Tetrium.Place allocates %.1f times per call in steady state", avg)
	}
}

// benchCluster is a deterministic 8-DC planning problem: heterogeneous
// compute, a skewed layout, and a believed matrix with strong and weak
// links (including one near-blackout pair to exercise the BW floor).
func benchCluster() (ClusterInfo, bwmatrix.Matrix, []float64) {
	regions := geo.Testbed()
	n := len(regions)
	rates := cost.DefaultRates()
	info := ClusterInfo{
		Regions:      regions,
		ComputeRates: make([]float64, n),
		EgressPerGB:  make([]float64, n),
	}
	rng := simrand.Derive(42, "gda-bench")
	believed := bwmatrix.New(n)
	layout := make([]float64, n)
	for i := 0; i < n; i++ {
		info.ComputeRates[i] = 1 + float64(rng.IntN(4))
		info.EgressPerGB[i] = rates.EgressPerGBFor(regions[i])
		layout[i] = rng.Uniform(1, 40) * 1e9
		for j := 0; j < n; j++ {
			if i != j {
				believed[i][j] = rng.Uniform(40, 1200)
			}
		}
	}
	believed[0][n-1] = 0.5 // near-blackout link
	return info, believed, layout
}

func BenchmarkSchedulerPlace(b *testing.B) {
	info, believed, layout := benchCluster()
	stage := spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}
	kim := Kimchi{Believed: believed, Info: info}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kim.Place(0, stage, layout)
	}
}

func BenchmarkSchedulerPlaceReference(b *testing.B) {
	info, believed, layout := benchCluster()
	stage := spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}
	kim := Kimchi{Believed: believed, Info: info}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placeKimchiReference(kim, stage, layout)
	}
}
