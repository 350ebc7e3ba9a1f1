package gda

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
)

// The placement oracles. TestPlacementOracles and FuzzPlace run one
// checker, oracleCase.check, on each stage of each planning problem:
//
//   - PlaceScored under each of the case's scorers equals
//     placeScorerReference element for element; Kimchi and Iridium
//     equal their references, Kimchi's descending from the JCT
//     reference's placement (JCT is Tetrium). Each reference runs once.
//     Up to refMaxN DCs: the references are O(n⁴) a descent.
//   - PlaceScored with its screens equals PlaceScored exact-only, at
//     every size: a screen may only turn away what the exact comparison
//     would.
//   - Every placement is a distribution over the DCs.
//
// Problems come from one generator, drawProblem, which reads a seeded
// stream in the tests' fixed mixes (planningProblem, oracleCases) and
// the fuzzer's bytes in FuzzPlace (decodeProblem).

// refMaxN is the largest cluster the references run on.
const refMaxN = 32

// fleetScaleN is the size from which a case is fleet-scale: its
// references or its exact-only side take a tenth of a second or more a
// stage, and it runs only under -tags fleet (oracle_fleet_test.go sets
// fleetOracles), as TestPlacementOracles/fleet-scale/….
const fleetScaleN = 24

var fleetOracles bool

// draws is the randomness drawProblem reads: a seeded *simrand.Source,
// or the fuzzer's byteDraws.
type draws interface {
	IntN(n int) int
	Uniform(lo, hi float64) float64
	Bool(p float64) bool
	Perm(n int) []int
}

// byteDraws reads each draw from one byte, 0 once they run out: IntN is
// the byte mod n, Uniform steps from lo to hi in 255ths (so values tie
// often), and Bool(p) is the byte below p·256. Every byte string is a
// problem.
type byteDraws []byte

func (b *byteDraws) next() int {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x)
}

func (b *byteDraws) IntN(n int) int                 { return b.next() % n }
func (b *byteDraws) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*float64(b.next())/255 }
func (b *byteDraws) Bool(p float64) bool            { return float64(b.next()) < p*256 }

// Perm is an inside-out Fisher–Yates shuffle over IntN.
func (b *byteDraws) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := b.IntN(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// planningProblem draws a cluster description, believed matrix and
// layout of n DCs from a named stream. Both mixes keep the hostile
// cases in: believed blackout (0 Mbps) and garbage (negative) links and
// zero compute rates. With nz = 0 it is the hostile mix, where any DC
// may be empty and believed links tie at 500 Mbps; with nz > 0 the
// fleet mix, with data on nz DCs only: the mostly-zero layouts the
// sparse search rows are built for.
func planningProblem(n, nz int, seed uint64) (ClusterInfo, bwmatrix.Matrix, []float64) {
	stream := "gda-eqtest"
	if nz > 0 {
		stream = "gda-fleet-eqtest"
	}
	return drawProblem(simrand.Derive(seed, stream), n, nz)
}

// drawProblem is planningProblem over any draws.
func drawProblem(d draws, n, nz int) (ClusterInfo, bwmatrix.Matrix, []float64) {
	zeroRate, links := 5, 8 // 1 rate in zeroRate is 0; links draw blackout, garbage, tie or uniform
	if nz > 0 {
		zeroRate, links = 6, 10 // and no ties
	}
	ci := ClusterInfo{
		Regions:      make([]geo.Region, n), // placeholders; the search reads only rates
		ComputeRates: make([]float64, n),
		EgressPerGB:  make([]float64, n),
	}
	believed, layout := bwmatrix.New(n), make([]float64, n)
	for i := range n {
		if d.IntN(zeroRate) != 0 {
			ci.ComputeRates[i] = d.Uniform(0.5, 6) // else the 1e-6 rate floor
		}
		ci.EgressPerGB[i] = d.Uniform(0.01, 0.2)
		if nz == 0 && !d.Bool(0.2) {
			layout[i] = d.Uniform(0.1, 50) * 1e9
		}
		for j := range n {
			if i == j {
				continue
			}
			switch k := d.IntN(links); {
			case k == 0: // believed blackout
			case k == 1:
				believed[i][j] = -3 // stale/garbage measurement
			case k == 2 && nz == 0:
				believed[i][j] = 500
			default:
				believed[i][j] = d.Uniform(10, 1500)
			}
		}
	}
	if nz > 0 {
		for _, i := range d.Perm(n)[:nz] {
			layout[i] = d.Uniform(0.5, 50) * 1e9
		}
	}
	return ci, believed, layout
}

// withCarbon fills a problem's carbon coefficient tables from a named
// stream (drawCarbon): the scorer oracles need real carbon gradients.
func withCarbon(ci ClusterInfo, seed uint64) ClusterInfo {
	return drawCarbon(ci, simrand.Derive(seed, "gda-carbon-eqtest"))
}

// drawCarbon fills the carbon tables with clean-grid zeros in the mix.
func drawCarbon(ci ClusterInfo, d draws) ClusterInfo {
	n := ci.N()
	ci.CarbonPerCompSec = make([]float64, n)
	ci.CarbonPerGB = make([]float64, n)
	for i := range n {
		if d.IntN(5) != 0 {
			ci.CarbonPerCompSec[i] = d.Uniform(1e-6, 5e-4) // else a hydro-clean grid
		}
		ci.CarbonPerGB[i] = d.Uniform(0, 0.05)
	}
	return ci
}

// exactOnly wraps a scorer so the descent takes the "slower, never
// wrong" path: ScreenSafe is false, so every candidate gets the exact
// canonical evaluation and no rejection screen runs.
type exactOnly struct{ Scorer }

func (exactOnly) ScreenSafe() bool { return false }

// oracleCase is one planning problem and what the checker runs on it.
type oracleCase struct {
	name     string
	ci       ClusterInfo
	believed bwmatrix.Matrix
	layout   []float64
	stages   []spark.Stage
	scorers  []Scorer // JCT first: the reference Kimchi descends from
	slack    float64  // Kimchi's (0: its default)
}

var (
	mapReduce = []spark.Stage{
		{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5},
		{Name: "r", Kind: spark.ReduceKind, SecPerGB: 1.5, Selectivity: 1},
	}
	// allStages adds a network-only reduce stage.
	allStages = append(slices.Clip(mapReduce), spark.Stage{Name: "r0", Kind: spark.ReduceKind, SecPerGB: 0, Selectivity: 1})
)

// check runs every oracle on one stage of c.
func (c oracleCase) check(t *testing.T, stage spark.Stage) {
	t.Helper()
	n := c.ci.N()
	ref := n <= refMaxN
	dist := func(label string, p spark.Placement) spark.Placement {
		t.Helper()
		sum := 0.0
		for _, v := range p {
			if !(v >= 0) || math.IsInf(v, 1) {
				t.Fatalf("%s: share %v in %v", label, v, p)
			}
			sum += v
		}
		if len(p) != n || math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: %v is not a distribution over %d DCs", label, p, n)
		}
		return p
	}
	var tet spark.Placement
	for _, sc := range c.scorers {
		label := "scorer=" + sc.Name()
		got := dist(label, PlaceScored(sc, c.believed, c.ci, stage, c.layout))
		requirePlacementsEqual(t, got, PlaceScored(exactOnly{sc}, c.believed, c.ci, stage, c.layout), label+" screened vs exact-only")
		if ref {
			want := placeScorerReference(sc, c.believed, c.ci, stage, c.layout)
			if tet == nil {
				tet = want
			}
			requirePlacementsEqual(t, got, want, label)
		}
	}
	if !ref {
		return
	}
	kim := Kimchi{Believed: c.believed, Info: c.ci, Slack: c.slack}
	requirePlacementsEqual(t, dist("kimchi", kim.Place(0, stage, c.layout)), placeKimchiReference(kim, stage, c.layout, tet), "kimchi")
	ir := Iridium{Believed: c.believed, Info: c.ci}
	requirePlacementsEqual(t, dist("iridium", ir.Place(0, stage, c.layout)), placeIridiumReference(ir, stage, c.layout), "iridium")
}

// oracleCases are TestPlacementOracles' problems, one mix per shape:
//
//   - hostile: the hostile mix at n = 2…8, every scheduler;
//   - near-tie: a tie only the sweep order settles;
//   - scorers: every scorer of equivalenceScorers at n = 2…8;
//   - zero-layout: no data anywhere (empty nzRows, zero total, zero
//     migration deficits), every scorer;
//   - coinciding: every DC at one compute rate (2.5, or 0 for the 1e-6
//     floor), so the compute-proportional start is the uniform one and
//     the search skips it, over the drawn, an even and an all-zero
//     layout at n = 2…8, and one fleet n = 24;
//   - fleet: fleet problems at n = 12/24/32, every scheduler;
//   - fleet-scorers: the same at n = 24/32, four scorers;
//   - screened: screened vs exact-only where the references cannot go,
//     at n = 48/64/100, with the references at n = 2/3/8.
//
// Every case of fleetScaleN DCs or more is fleet-scale.
func oracleCases(t *testing.T) []oracleCase {
	jct := []Scorer{JCT{}}
	four := []Scorer{JCT{}, Cost{BudgetS: math.Inf(1)}, Carbon{}, Blend{WJCT: 0.5, WCost: 0.3, WCarbon: 0.2}}
	var cs []oracleCase
	add := func(name string, ci ClusterInfo, believed bwmatrix.Matrix, layout []float64, stages []spark.Stage, scorers []Scorer, slack float64) {
		if ci.N() >= fleetScaleN {
			if !fleetOracles {
				return
			}
			name = "fleet-scale/" + name
		}
		cs = append(cs, oracleCase{name, ci, believed, layout, stages, scorers, slack})
	}
	// coinciding adds the problem at each one compute rate over each
	// layout, checking that it reaches the skipped start.
	type named struct {
		name   string
		layout []float64
	}
	coinciding := func(name string, ci ClusterInfo, believed bwmatrix.Matrix, rates []float64, layouts ...named) {
		for _, rate := range rates {
			ci := ci
			ci.ComputeRates = slices.Repeat([]float64{rate}, ci.N())
			prop := spark.Placement(slices.Clone(ci.ComputeRates)).Normalize()
			requirePlacementsEqual(t, prop, spark.UniformPlacement(ci.N()), name+" compute-proportional start")
			for _, l := range layouts {
				add(fmt.Sprintf("coinciding/%s/rate=%v/layout=%s", name, rate, l.name), ci, believed, l.layout, allStages, four, 0)
			}
		}
	}
	for n := 2; n <= 8; n++ {
		for trial := range 6 {
			ci, believed, layout := planningProblem(n, 0, uint64(n*100+trial))
			add(fmt.Sprintf("hostile/n=%d/trial=%d", n, trial), ci, believed, layout, allStages, jct, 0.1+0.05*float64(trial%3))
		}
		for trial := range 2 {
			seed := uint64(n*300 + trial)
			ci, believed, layout := planningProblem(n, 0, seed)
			add(fmt.Sprintf("scorers/n=%d/trial=%d", n, trial), withCarbon(ci, seed), believed, layout, mapReduce, equivalenceScorers(), 0)
		}
		seed := uint64(n*900 + 1)
		ci, believed, layout := planningProblem(n, 0, seed)
		coinciding(fmt.Sprintf("n=%d", n), withCarbon(ci, seed), believed, []float64{2.5, 0},
			named{"drawn", layout}, named{"even", slices.Repeat([]float64{8e9}, n)}, named{"zero", make([]float64, n)})
	}
	ci, believed, layout := planningProblem(24, 4, 24*9000+4)
	coinciding("n=24/nz=4", withCarbon(ci, 24*9000+4), believed, []float64{2.5}, named{"drawn", layout})

	// DCs 1 and 2 hold equal data at equal egress prices, so Kimchi's
	// dollar phase prices a share moved from DC 0 to either one the
	// same, while DC 1's slower compute ranks it after DC 2 in the
	// shuffle cutoff. Met in index order, as the reference meets them,
	// DC 1 takes the share.
	add("near-tie", ClusterInfo{
		Regions:      make([]geo.Region, 3),
		ComputeRates: []float64{2, 1, 4},
		EgressPerGB:  []float64{0.01, 0.09, 0.09},
	}, bwmatrix.Matrix{{0, 800, 800}, {800, 0, 800}, {800, 800, 0}}, []float64{2e9, 20e9, 20e9}, allStages, jct, 0.5)

	ci, believed, _ = planningProblem(5, 0, 77)
	add("zero-layout", withCarbon(ci, 77), believed, make([]float64, 5), mapReduce, equivalenceScorers(), 0)

	for _, d := range []struct{ n, nz, trials int }{{12, 3, 2}, {24, 4, 2}, {32, 5, 1}} {
		for trial := range d.trials {
			ci, believed, layout := planningProblem(d.n, d.nz+trial, uint64(d.n*1000+trial))
			add(fmt.Sprintf("fleet/n=%d/nz=%d/trial=%d", d.n, d.nz+trial, trial), ci, believed, layout, mapReduce, jct, 0.1+0.05*float64(trial%3))
		}
	}
	for _, d := range [][2]int{{24, 4}, {32, 5}} {
		seed := uint64(d[0]*5000 + d[1])
		ci, believed, layout := planningProblem(d[0], d[1], seed)
		add(fmt.Sprintf("fleet-scorers/n=%d/nz=%d", d[0], d[1]), withCarbon(ci, seed), believed, layout, mapReduce, four, 0)
	}
	for _, d := range [][2]int{{2, 2}, {3, 2}, {8, 4}, {48, 5}, {64, 6}, {100, 6}} {
		seed := uint64(d[0]*7000 + d[1])
		scorers := []Scorer{JCT{}, Cost{BudgetS: 120}, Blend{WJCT: 0.5, WCost: 0.3, WCarbon: 0.2}}
		if d[0] == 100 {
			scorers = jct // the exact-only side takes seconds a scorer here
		}
		ci, believed, layout := planningProblem(d[0], d[1], seed)
		add(fmt.Sprintf("screened/n=%d/nz=%d", d[0], d[1]), withCarbon(ci, seed), believed, layout, mapReduce, scorers, 0)
	}
	return cs
}

// TestPlacementOracles runs the checker on every stage of every
// oracleCases problem, in parallel: the cases are independent pure
// calls.
func TestPlacementOracles(t *testing.T) {
	for _, c := range oracleCases(t) {
		for _, stage := range c.stages {
			t.Run(c.name+"/"+stage.Name, func(t *testing.T) {
				t.Parallel()
				c.check(t, stage)
			})
		}
	}
}

// decodeProblem reads any byte string as one stage of a problem of 2…8
// DCs: n, the layout's shape (0: the hostile mix, else data on that
// many DCs of the fleet mix), the stage, a second scorer beside JCT (or
// none), Kimchi's slack and whether the carbon tables are filled, then
// drawProblem's and drawCarbon's draws.
func decodeProblem(b []byte) oracleCase {
	d := byteDraws(b)
	n := 2 + d.IntN(7)
	nz := d.IntN(n + 1)
	c := oracleCase{stages: []spark.Stage{allStages[d.IntN(len(allStages))]}, scorers: []Scorer{JCT{}}}
	scs := equivalenceScorers()
	if sc := scs[d.IntN(len(scs))]; sc != (JCT{}) {
		c.scorers = append(c.scorers, sc)
	}
	c.slack = 0.05 * float64(d.IntN(8))
	carbon := d.Bool(0.5)
	c.ci, c.believed, c.layout = drawProblem(&d, n, nz)
	if carbon {
		c.ci = drawCarbon(c.ci, &d)
	}
	return c
}

// FuzzPlace runs the checker on decodeProblem's problem. The seeds are
// byte strings from fixed streams, long enough for every draw of n = 8.
func FuzzPlace(f *testing.F) {
	for seed := range uint64(8) {
		rng, b := simrand.Derive(seed, "gda-fuzzplace"), make([]byte, 200)
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c := decodeProblem(b)
		c.check(t, c.stages[0])
	})
}
