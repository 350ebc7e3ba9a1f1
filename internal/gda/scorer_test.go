package gda

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/spark"
)

// equivalenceScorers is the sweep set for the delta-vs-full locks:
// every registered scorer plus blends with zero weights (which must
// stay on the cheaper non-carbon path) and a finite Kimchi-style
// budget wall.
func equivalenceScorers() []Scorer {
	return []Scorer{
		JCT{},
		Cost{BudgetS: math.Inf(1)},
		Cost{BudgetS: 120},
		Carbon{},
		Blend{WJCT: 1},
		Blend{WJCT: 0.5, WCost: 0.5},
		Blend{WCarbon: 1},
		Blend{WJCT: 0.5, WCost: 0.3, WCarbon: 0.2},
	}
}

// TestEstimateAggMatchesDetail locks estimateAgg's shared fields to
// estimateDetail bit for bit: the carbon-extended estimator must not
// perturb the original aggregates by a single ulp, or every golden
// breaks.
func TestEstimateAggMatchesDetail(t *testing.T) {
	for n := 2; n <= 8; n += 2 {
		ci, believed, layout := planningProblem(n, 0, uint64(n)*31+7)
		ci = withCarbon(ci, uint64(n)*31+7)
		est := estimator{believed: believed, info: ci}
		for _, stage := range []spark.Stage{
			{Name: "m", Kind: spark.MapKind, SecPerGB: 2, Selectivity: 1},
			{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1},
		} {
			for _, p := range []spark.Placement{
				spark.UniformPlacement(n),
				spark.LocalityPlacement(layout),
			} {
				secs, load, usd := est.estimateDetail(stage, layout, p)
				a := est.estimateAgg(stage, layout, p)
				if a.Secs != secs || a.LoadSum != load || a.USD != usd {
					t.Fatalf("n=%d %s: estimateAgg (%v,%v,%v) != estimateDetail (%v,%v,%v)",
						n, stage.Name, a.Secs, a.LoadSum, a.USD, secs, load, usd)
				}
			}
		}
	}
}

// TestSearchCarbonAggregatesMatchEstimateAgg checks the carbon
// counterpart of the Kimchi budget invariant: after a carbon-pricing
// descent, the context's cached Aggregates — KgCO2 included — are
// bit-equal to a fresh estimateAgg of the final placement.
func TestSearchCarbonAggregatesMatchEstimateAgg(t *testing.T) {
	for n := 2; n <= 8; n += 2 {
		ci, believed, layout := planningProblem(n, 0, uint64(n)*13+5)
		ci = withCarbon(ci, uint64(n)*13+5)
		est := estimator{believed: believed, info: ci}
		for _, stage := range []spark.Stage{
			{Name: "m", Kind: spark.MapKind, SecPerGB: 2, Selectivity: 1},
			{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1},
		} {
			for _, sc := range []Scorer{Carbon{}, Blend{WJCT: 0.4, WCost: 0.3, WCarbon: 0.3}} {
				s := getSearch(est, stage, layout)
				s.descend(spark.UniformPlacement(n), sc)
				if want := est.estimateAgg(stage, layout, s.p); s.agg != want {
					t.Fatalf("n=%d %s %s: cached %+v != fresh %+v", n, stage.Name, sc.Name(), s.agg, want)
				}
				putSearch(s)
			}
		}
	}
}

// TestScorerPlaceSteadyStateAllocs checks no scorer implementation
// allocates in the warm descent loop: after pool warm-up, a Place is a
// handful of fixed allocations (the returned placement and interface
// boxing) for every scorer, carbon-pricing blends included.
func TestScorerPlaceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	ci, believed, layout := planningProblem(8, 0, 99)
	ci = withCarbon(ci, 99)
	stage := spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}
	for _, sc := range equivalenceScorers() {
		PlaceScored(sc, believed, ci, stage, layout) // warm the pool
		avg := testing.AllocsPerRun(20, func() { PlaceScored(sc, believed, ci, stage, layout) })
		if avg > 12 {
			t.Fatalf("%s: PlaceScored allocates %.1f times per call in steady state", sc.Name(), avg)
		}
	}
}

func TestParseScorer(t *testing.T) {
	cases := []struct {
		spec string
		want Scorer
	}{
		{"jct", JCT{}},
		{"cost", Cost{BudgetS: math.Inf(1)}},
		{"carbon", Carbon{}},
		{"blend:jct=0.5,cost=0.3,carbon=0.2", Blend{WJCT: 0.5, WCost: 0.3, WCarbon: 0.2}},
		{"blend:carbon=1", Blend{WCarbon: 1}},
		{"blend:jct=1,cost=0", Blend{WJCT: 1}},
	}
	for _, c := range cases {
		got, err := ParseScorer(c.spec)
		if err != nil {
			t.Fatalf("ParseScorer(%q): %v", c.spec, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ParseScorer(%q) = %#v, want %#v", c.spec, got, c.want)
		}
	}

	bad := []string{
		"", "tetrium", "blend:", "blend:jct", "blend:jct=x", "blend:jct=NaN",
		"blend:jct=-1", "blend:watts=1", "blend:jct=0,cost=0,carbon=0",
	}
	for _, spec := range bad {
		if _, err := ParseScorer(spec); err == nil {
			t.Fatalf("ParseScorer(%q) unexpectedly succeeded", spec)
		}
	}

	// A blend's Name round-trips through the parser.
	b := Blend{WJCT: 0.25, WCost: 0.5, WCarbon: 0.25}
	got, err := ParseScorer(b.Name())
	if err != nil {
		t.Fatalf("ParseScorer(%q): %v", b.Name(), err)
	}
	if got != b {
		t.Fatalf("round-trip %q = %#v", b.Name(), got)
	}
}

// TestParseScheduler checks the one -sched resolver: the classic
// schedulers by name over the given belief, every scorer spec as a
// Sched, and an error naming every accepted spec otherwise.
func TestParseScheduler(t *testing.T) {
	believed := bwmatrix.NewFilled(2, 100)
	info := ClusterInfo{ComputeRates: []float64{1, 2}}
	cases := []struct {
		spec string
		want spark.Scheduler
	}{
		{"locality", Locality{}},
		{"iridium", Iridium{Believed: believed, Info: info}},
		{"tetrium", Tetrium{Believed: believed, Info: info}},
		{"kimchi", Kimchi{Believed: believed, Info: info}},
		{"cost", Sched{Scorer: Cost{BudgetS: math.Inf(1)}, Believed: believed, Info: info}},
		{"blend:jct=1,carbon=1", Sched{Scorer: Blend{WJCT: 1, WCarbon: 1}, Believed: believed, Info: info}},
	}
	for _, c := range cases {
		got, err := ParseScheduler(c.spec, believed, info)
		if err != nil {
			t.Fatalf("ParseScheduler(%q): %v", c.spec, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ParseScheduler(%q) = %#v, want %#v", c.spec, got, c.want)
		}
	}
	_, err := ParseScheduler("Tetrium", believed, info)
	if err == nil || !strings.Contains(err.Error(), SchedulerSpecs()) {
		t.Fatalf("ParseScheduler(%q) error %v does not list %q", "Tetrium", err, SchedulerSpecs())
	}
}

// FuzzParseScheduler feeds arbitrary -sched specs to the resolver: each
// must be refused or resolve to a scheduler with a name, never panic.
// The seed corpus (testdata/fuzz/FuzzParseScheduler) holds malformed
// and extreme blends.
func FuzzParseScheduler(f *testing.F) {
	for _, spec := range []string{"locality", "iridium", "tetrium", "kimchi", "jct", "cost", "carbon", "blend:jct=0.5,cost=0.5"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseScheduler(spec, nil, ClusterInfo{})
		if err == nil && s.Name() == "" {
			t.Fatalf("ParseScheduler(%q) resolved to an unnamed scheduler %#v", spec, s)
		}
	})
}

func TestScorerNames(t *testing.T) {
	names := ScorerNames()
	want := []string{"carbon", "cost", "jct"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ScorerNames() = %v, want %v", names, want)
	}
}

// TestSchedName checks the Scorer→Scheduler adapter's report labels.
func TestSchedName(t *testing.T) {
	if got := (Sched{Scorer: Carbon{}}).Name(); got != "carbon" {
		t.Fatalf("Sched name = %q", got)
	}
	if got := (Sched{Label: "green", Scorer: Carbon{}}).Name(); got != "green" {
		t.Fatalf("labelled Sched name = %q", got)
	}
}
