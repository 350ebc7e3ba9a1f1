package gda

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/spark"
)

// Aggregates are the estimator's per-placement totals a Scorer ranks
// candidates by: bottleneck seconds and summed per-link/per-DC times,
// which the search keeps itself, then one field per linear objective —
// USD from the search's slot 0, KgCO2 from slot 1, which is active only
// when the scorer asks for it (KgCO2 is exactly 0 otherwise).
// Restricting scorers to these aggregates is what makes every scorer
// cheap by construction: the search folds and screens each slot with
// the same code (DESIGN.md §10), so a new linear objective is one more
// field and one more slot, not new machinery.
type Aggregates struct {
	// Secs is the estimated stage completion time: the slowest link's
	// transfer plus the slowest DC's compute.
	Secs float64
	// LoadSum is the sum of all per-link and per-DC times — the
	// gradient pressure that walks the descent off max() plateaus.
	LoadSum float64
	// USD is the WAN egress cost of the placement's transfers.
	USD float64
	// KgCO2 is the compute + network carbon of the stage (compute
	// attributed to each DC's grid, transfers to the sender's), priced
	// through cost.EnergyRates. Zero unless the scorer's NeedsCarbon.
	KgCO2 float64
}

// Scorer is the pluggable descent objective: it folds a candidate
// placement's estimate aggregates into one value (lower is better).
// Implementations must be pure functions of the Aggregates — no state,
// no allocation — because Score runs on the descent hot path for every
// candidate the screens cannot reject.
//
// The fold-or-screen contract: the search computes the aggregates
// itself, so any Scorer gets the exact, allocation-free candidate
// evaluation for free. ScreenSafe additionally enables the O(1)
// rejection screens, which are only sound for scorers monotone
// non-decreasing in every aggregate (the screens understate each
// aggregate; a monotone scorer then understates the objective, so a
// rejection is safe). Non-monotone scorers return false and fall back
// to exact evaluation for every candidate — slower, never wrong.
type Scorer interface {
	// Name identifies the scorer in flags, reports and benchmarks.
	Name() string
	// Score folds the aggregates into the descent objective.
	Score(a Aggregates) float64
	// NeedsCarbon reports whether Score reads a.KgCO2, so the search
	// maintains the carbon aggregate (and its screen bounds) only when
	// an objective actually prices it.
	NeedsCarbon() bool
	// ScreenSafe reports whether Score is monotone non-decreasing in
	// every aggregate, enabling the rejection screens.
	ScreenSafe() bool
}

// JCT is Tetrium's completion-time objective: bottleneck seconds, the
// loadSum gradient pressure, and the (weaker still) dollar tie-break —
// the exact expression of the original placeTetrium closure.
type JCT struct{}

// Name implements Scorer.
func (JCT) Name() string { return "jct" }

// Score implements Scorer.
func (JCT) Score(a Aggregates) float64 { return a.Secs + 1e-3*a.LoadSum + 0.05*a.USD }

// NeedsCarbon implements Scorer.
func (JCT) NeedsCarbon() bool { return false }

// ScreenSafe implements Scorer.
func (JCT) ScreenSafe() bool { return true }

// Cost is Kimchi's budgeted dollar objective: WAN egress dollars, with
// the latency envelope as a penalty wall — the exact expression of the
// original Kimchi closure. With BudgetS = +Inf the wall never fires
// and the descent minimizes dollars unconditionally (the standalone
// "cost" scorer).
type Cost struct {
	// BudgetS is the tolerated stage completion time in seconds.
	BudgetS float64
}

// Name implements Scorer.
func (Cost) Name() string { return "cost" }

// Score implements Scorer.
func (c Cost) Score(a Aggregates) float64 {
	if a.Secs > c.BudgetS {
		return a.USD + 1e6*(a.Secs-c.BudgetS)
	}
	return a.USD
}

// NeedsCarbon implements Scorer.
func (Cost) NeedsCarbon() bool { return false }

// ScreenSafe implements Scorer.
func (Cost) ScreenSafe() bool { return true }

// Carbon minimizes the stage's compute + network kgCO₂-eq. Unlike the
// max()-shaped JCT, carbon is a pure sum over entries, so the descent
// always has a full gradient and needs no pressure term.
type Carbon struct{}

// Name implements Scorer.
func (Carbon) Name() string { return "carbon" }

// Score implements Scorer.
func (Carbon) Score(a Aggregates) float64 { return a.KgCO2 }

// NeedsCarbon implements Scorer.
func (Carbon) NeedsCarbon() bool { return true }

// ScreenSafe implements Scorer.
func (Carbon) ScreenSafe() bool { return true }

// Exchange rates folding dollars and kilograms into the blend's
// second-denominated objective. A blend's weights apply to roughly
// commensurate axes — blend:jct=0.5,cost=0.5 trades seconds against
// dollars at USDToSecs seconds per dollar, not 1:1 (a testbed-scale
// stage runs hundreds of seconds but moves single dollars and
// fractional kilograms; unscaled weights would let seconds drown the
// other axes). The constants are part of the golden-locked objective.
const (
	// USDToSecs weighs one WAN dollar like five minutes of JCT.
	USDToSecs = 300
	// KgCO2ToSecs weighs one kgCO₂-eq like twenty minutes of JCT.
	KgCO2ToSecs = 1200
)

// Blend is the weighted multi-objective scorer: WJCT prices the
// completion-time axis (seconds, with JCT's loadSum pressure so the
// descent keeps its plateau gradient), WCost the dollar axis and
// WCarbon the carbon axis, each folded to seconds through the exchange
// rates above. Sweeping the weights traces the JCT-vs-$-vs-kgCO₂
// Pareto frontier (the `pareto` experiment driver).
type Blend struct {
	WJCT, WCost, WCarbon float64
}

// Name implements Scorer, rendering the spec the blend parser accepts.
func (b Blend) Name() string {
	return fmt.Sprintf("blend:jct=%g,cost=%g,carbon=%g", b.WJCT, b.WCost, b.WCarbon)
}

// Score implements Scorer.
func (b Blend) Score(a Aggregates) float64 {
	return b.WJCT*(a.Secs+1e-3*a.LoadSum) + b.WCost*(USDToSecs*a.USD) + b.WCarbon*(KgCO2ToSecs*a.KgCO2)
}

// NeedsCarbon implements Scorer: a zero-weight carbon axis keeps the
// search on the cheaper three-aggregate path.
func (b Blend) NeedsCarbon() bool { return b.WCarbon != 0 }

// ScreenSafe implements Scorer: non-negative weights over monotone
// axes stay monotone. (ParseScorer rejects negative weights; a
// hand-built Blend with one falls back to exact evaluation.)
func (b Blend) ScreenSafe() bool { return b.WJCT >= 0 && b.WCost >= 0 && b.WCarbon >= 0 }

// scorerSpecs is the single scorer registry: ScorerNames, ParseScorer
// and the blend component parser all read it, so a name is valid in
// `-sched <name>` exactly when it is valid inside `blend:<name>=W`.
var scorerSpecs = []struct {
	name   string
	make   func() Scorer
	weight func(*Blend) *float64
}{
	{"jct", func() Scorer { return JCT{} }, func(b *Blend) *float64 { return &b.WJCT }},
	{"cost", func() Scorer { return Cost{BudgetS: math.Inf(1)} }, func(b *Blend) *float64 { return &b.WCost }},
	{"carbon", func() Scorer { return Carbon{} }, func(b *Blend) *float64 { return &b.WCarbon }},
}

// ScorerNames returns the registered scorer names, sorted. Each is a
// valid ParseScorer spec and a valid blend component.
func ScorerNames() []string {
	out := make([]string, len(scorerSpecs))
	for i, s := range scorerSpecs {
		out[i] = s.name
	}
	sort.Strings(out)
	return out
}

// ParseScorer resolves a scorer spec: a registered name ("jct",
// "cost", "carbon") or a weighted blend like
// "blend:jct=0.5,cost=0.3,carbon=0.2" (weights non-negative, at least
// one positive; omitted components default to 0).
func ParseScorer(spec string) (Scorer, error) {
	for _, s := range scorerSpecs {
		if spec == s.name {
			return s.make(), nil
		}
	}
	if !strings.HasPrefix(spec, "blend:") {
		return nil, fmt.Errorf("gda: unknown scorer %q (want %s, or blend:jct=W,cost=W,carbon=W)",
			spec, strings.Join(ScorerNames(), " | "))
	}
	var b Blend
	for _, kv := range strings.Split(strings.TrimPrefix(spec, "blend:"), ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("gda: bad blend component %q in %q (want name=weight)", kv, spec)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(w) {
			return nil, fmt.Errorf("gda: bad blend weight %q in %q", val, spec)
		}
		if w < 0 {
			return nil, fmt.Errorf("gda: negative blend weight %q in %q", kv, spec)
		}
		found := false
		for _, s := range scorerSpecs {
			if name == s.name {
				*s.weight(&b) = w
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("gda: unknown blend component %q in %q (want %s)",
				name, spec, strings.Join(ScorerNames(), " | "))
		}
	}
	if b.WJCT == 0 && b.WCost == 0 && b.WCarbon == 0 {
		return nil, fmt.Errorf("gda: blend %q needs at least one positive weight", spec)
	}
	return b, nil
}

// ParseScheduler resolves a scheduler spec: the classic composed
// schedulers by name (locality, iridium, tetrium, kimchi), every other
// spec through ParseScorer as a Sched over that scorer. It is the one
// resolver behind wanify-sim's -sched flag and the pareto sweep.
func ParseScheduler(spec string, believed bwmatrix.Matrix, info ClusterInfo) (spark.Scheduler, error) {
	switch spec {
	case "locality":
		return Locality{}, nil
	case "iridium":
		return Iridium{Believed: believed, Info: info}, nil
	case "tetrium":
		return Tetrium{Believed: believed, Info: info}, nil
	case "kimchi":
		return Kimchi{Believed: believed, Info: info}, nil
	}
	sc, err := ParseScorer(spec)
	if err != nil {
		return nil, fmt.Errorf("gda: unknown scheduler %q (want %s): %v", spec, SchedulerSpecs(), err)
	}
	return Sched{Scorer: sc, Believed: believed, Info: info}, nil
}

// SchedulerSpecs lists the specs ParseScheduler accepts, derived from
// the scorer registry so flag help cannot drift from the parser.
func SchedulerSpecs() string {
	return "locality | iridium | tetrium | kimchi | " + strings.Join(ScorerNames(), " | ") +
		" | blend:jct=W,cost=W,carbon=W"
}

// PlaceScored runs the three-start descent under any Scorer on the
// pooled search context — the generic placement every
// scorer-composed scheduler is a one-liner over. Each distinct start is
// descended once (placeMultiStart); bit-exact against the three descents
// of placeScorerReference (TestPlacementOracles).
func PlaceScored(sc Scorer, believed bwmatrix.Matrix, info ClusterInfo, stage spark.Stage, layout []float64) spark.Placement {
	s := getSearch(estimator{believed: believed, info: info}, stage, layout)
	best, _ := s.placeMultiStart(sc)
	out := append(spark.Placement(nil), best...)
	putSearch(s)
	return out
}

// Sched adapts any Scorer into a spark.Scheduler — the thin
// composition Tetrium is an instance of (Sched with JCT), and the
// scheduler `-sched jct|cost|carbon|blend:...` flags construct.
type Sched struct {
	// Label distinguishes variants in reports; defaults to the
	// scorer's name.
	Label string
	// Scorer is the descent objective.
	Scorer Scorer
	// Believed is the bandwidth matrix the scheduler plans with.
	Believed bwmatrix.Matrix
	// Info is the cluster description (carbon coefficients included).
	Info ClusterInfo
}

// Name implements spark.Scheduler.
func (s Sched) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Scorer.Name()
}

// Place implements spark.Scheduler.
func (s Sched) Place(_ int, stage spark.Stage, layout []float64) spark.Placement {
	return PlaceScored(s.Scorer, s.Believed, s.Info, stage, layout)
}

var _ spark.Scheduler = Sched{}
