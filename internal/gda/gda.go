// Package gda implements the WAN-aware geo-distributed analytics
// schedulers the paper evaluates WANify with:
//
//   - Locality: vanilla Spark's data-locality placement (the
//     "No WAN-aware" baseline of §5.3.1).
//   - Tetrium [21]: multi-resource placement minimizing estimated stage
//     completion time (network transfer + compute) over task fractions.
//   - Kimchi [30]: network-cost-aware placement minimizing dollar cost
//     of WAN transfers subject to staying within a latency envelope of
//     the fastest placement.
//
// Each scheduler consumes a *believed* bandwidth matrix. Feeding the
// same scheduler statically-independent, statically-simultaneous, or
// WANify-predicted matrices is exactly how the paper's Table 4 and
// Figs. 7/8/10/11 vary their conditions — bad beliefs yield bad
// placements on the real (simulated) network.
package gda

import (
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// ClusterInfo describes what schedulers know about the cluster.
type ClusterInfo struct {
	// Regions in cluster order.
	Regions []geo.Region
	// ComputeRates is the aggregate task-processing rate per DC.
	ComputeRates []float64
	// EgressPerGB is the WAN egress price per DC.
	EgressPerGB []float64
	// CarbonPerCompSec is the kgCO₂-eq of one second of the DC's full
	// compute draw (aggregate watts × grid intensity). Nil is treated
	// as all zeros — only carbon-aware scorers read it.
	CarbonPerCompSec []float64
	// CarbonPerGB is the kgCO₂-eq of one GB leaving the DC over the
	// WAN, attributed to the sender like egress pricing. Nil = zeros.
	CarbonPerGB []float64
}

// NewClusterInfo extracts scheduler-visible cluster facts from a
// simulator and pricing table, with the default energy/carbon rates —
// the table spark.Engine bills with.
func NewClusterInfo(sim substrate.Cluster, rates cost.Rates) ClusterInfo {
	energy := cost.DefaultEnergyRates()
	n := sim.NumDCs()
	info := ClusterInfo{
		Regions:          sim.Regions(),
		ComputeRates:     make([]float64, n),
		EgressPerGB:      make([]float64, n),
		CarbonPerCompSec: make([]float64, n),
		CarbonPerGB:      make([]float64, n),
	}
	for dc := 0; dc < n; dc++ {
		watts := 0.0
		for _, vm := range sim.VMsOfDC(dc) {
			info.ComputeRates[dc] += sim.Spec(vm).ComputeRate
			watts += sim.Spec(vm).Watts
		}
		info.EgressPerGB[dc] = rates.EgressPerGBFor(info.Regions[dc])
		info.CarbonPerCompSec[dc] = energy.ComputeKgCO2PerSec(watts, info.Regions[dc])
		info.CarbonPerGB[dc] = energy.WANKgCO2PerGB(info.Regions[dc])
	}
	return info
}

// coefAt reads a per-DC coefficient with nil-as-zeros semantics, so
// ClusterInfo literals predating the energy model keep working.
func coefAt(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

// N returns the cluster size.
func (c ClusterInfo) N() int { return len(c.Regions) }

// Locality is vanilla Spark: tasks go where the data is, for every
// stage. Map stages move nothing; shuffles land proportional to the
// intermediate data.
type Locality struct{}

// Name implements spark.Scheduler.
func (Locality) Name() string { return "locality" }

// Place implements spark.Scheduler.
func (Locality) Place(_ int, _ spark.Stage, layout []float64) spark.Placement {
	return spark.LocalityPlacement(layout)
}

// Masked confines a scheduler to the allowed DCs (a job's capacity
// quota): the inner placement with every disallowed DC zeroed,
// renormalized in place, or uniform over the allowed set when the
// inner placement put everything elsewhere. It keeps the inner name.
type Masked struct {
	Inner   spark.Scheduler
	Allowed []bool
}

// Name implements spark.Scheduler.
func (m Masked) Name() string { return m.Inner.Name() }

// Place implements spark.Scheduler.
func (m Masked) Place(stageIdx int, stage spark.Stage, layout []float64) spark.Placement {
	p := m.Inner.Place(stageIdx, stage, layout)
	total := 0.0
	for i := range p {
		if !m.Allowed[i] {
			p[i] = 0
		}
		total += p[i]
	}
	if total <= 0 {
		total = 0 // counts the allowed DCs exactly: each gets 1/count
		for i, ok := range m.Allowed {
			if ok {
				p[i] = 1
				total++
			}
		}
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// estimator is the planning model Tetrium and Kimchi share: a believed
// bandwidth matrix and the cluster description. The search context
// (search.go) is its only production evaluator; the from-scratch
// estimates it is locked against live in reference_test.go.
type estimator struct {
	believed bwmatrix.Matrix
	info     ClusterInfo
}

// The descent's step schedule halves unconditionally after each
// exhausted sweep. An earlier revision tracked an `improved` flag and
// then halved in both arms of `if !improved` — evidently a
// restart-at-full-step idea that was never wired up. Restarting at the
// full step after an improvement would re-search coarse moves from the
// new point and produce different (occasionally better, always slower)
// placements, which would invalidate every golden experiment output;
// we keep the always-halve schedule as the locked decision and dropped
// the dead flag. The search itself lives in search.go (pooled and screened)
// with the original kept as descendReference in reference_test.go.

// Tetrium minimizes estimated stage completion time (network + compute)
// over task placements, following Hung et al.'s multi-resource
// formulation [21].
type Tetrium struct {
	// Label distinguishes variants in reports, e.g. "tetrium(static)".
	Label string
	// Believed is the bandwidth matrix the scheduler plans with.
	Believed bwmatrix.Matrix
	// Info is the cluster description.
	Info ClusterInfo
}

// Name implements spark.Scheduler.
func (t Tetrium) Name() string {
	if t.Label != "" {
		return t.Label
	}
	return "tetrium"
}

// Place implements spark.Scheduler. Tetrium optimizes completion time;
// the JCT scorer's loadSum term guides the greedy descent off max()
// plateaus, and the (weaker still) dollar term breaks ties among
// near-equal placements (Hung et al. break ties toward lower cost) so
// WAN bytes don't drift up. Three deterministic starts — data locality,
// uniform, and compute-proportional — because the max() objective has
// valleys a single-move greedy cannot cross (e.g. shifting work toward
// a fast DC raises the network max before the compute max falls).
// Each distinct start is descended once (a repeat could only tie, and a
// tie keeps the earlier winner), on the pooled search context
// (search.go): bit-identical to placeScorerReference's three JCT descents.
func (t Tetrium) Place(_ int, stage spark.Stage, layout []float64) spark.Placement {
	return PlaceScored(JCT{}, t.Believed, t.Info, stage, layout)
}

// Kimchi minimizes the WAN dollar cost of a stage subject to its
// estimated completion time staying within Slack of the fastest
// placement found — Oh et al.'s network-cost-aware placement [30].
type Kimchi struct {
	// Label distinguishes variants in reports.
	Label string
	// Believed is the bandwidth matrix the scheduler plans with.
	Believed bwmatrix.Matrix
	// Info is the cluster description.
	Info ClusterInfo
	// Slack is the tolerated latency inflation over the fastest
	// placement (default 0.10 = 10%).
	Slack float64
}

// Name implements spark.Scheduler.
func (k Kimchi) Name() string {
	if k.Label != "" {
		return k.Label
	}
	return "kimchi"
}

// Place implements spark.Scheduler: the fastest placement first
// (Tetrium objective), then a descent on dollars with the latency
// envelope as a penalty wall. Both phases share one pooled search
// context, and the budget reads the seconds the Tetrium phase already
// computed for its winner instead of re-estimating it — the reference
// ran the full three-start descent and then estimated the same
// placement again (see placeKimchiReference).
func (k Kimchi) Place(_ int, stage spark.Stage, layout []float64) spark.Placement {
	s := getSearch(estimator{believed: k.Believed, info: k.Info}, stage, layout)
	out := append(spark.Placement(nil), k.descend(s)...)
	putSearch(s)
	return out
}

// descend runs both phases on a leased context and returns its final
// placement, s.p.
func (k Kimchi) descend(s *search) spark.Placement {
	slack := k.Slack
	if slack == 0 {
		slack = 0.10
	}
	fast, agg := s.placeMultiStart(JCT{})
	s.descend(fast, Cost{BudgetS: agg.Secs * (1 + slack)})
	return s.p
}

// Iridium is the classic WAN-aware placement of Pu et al. [33], the
// lineage Tetrium and Kimchi extend: choose reduce-task fractions
// minimizing the slowest DC's shuffle time, where each DC is modelled
// by an aggregate uplink and downlink derived from the believed matrix
// (Iridium's per-site bandwidth model predates pairwise matrices).
// It ignores compute — the gap Tetrium's multi-resource objective
// closes — and is included as a third comparison baseline.
type Iridium struct {
	// Label distinguishes variants in reports.
	Label string
	// Believed is the bandwidth matrix the scheduler plans with.
	Believed bwmatrix.Matrix
	// Info is the cluster description.
	Info ClusterInfo
}

// Name implements spark.Scheduler.
func (ir Iridium) Name() string {
	if ir.Label != "" {
		return ir.Label
	}
	return "iridium"
}

// Place implements spark.Scheduler: minimize max_i max(upload_i,
// download_i) with upload_i = data_i·(1−p_i)/U_i and download_i =
// (total−data_i)·p_i/D_i, U/D being the believed aggregate egress and
// ingress of site i. It descends from the locality start, and from the
// uniform one unless the two are bit-identical (a tie would pick a).
func (ir Iridium) Place(_ int, stage spark.Stage, layout []float64) spark.Placement {
	obj, n := ir.objective(stage, layout)
	loc, uni := spark.LocalityPlacement(layout), spark.UniformPlacement(n)
	a := descendGeneric(n, loc, obj)
	if repeatsStart(uni, loc) {
		return a
	}
	b := descendGeneric(n, uni, obj)
	if obj(a) <= obj(b) {
		return a
	}
	return b
}

// objective builds Iridium's per-site transfer-time objective over the
// current layout (shared by Place and the reference path).
func (ir Iridium) objective(stage spark.Stage, layout []float64) (func(spark.Placement) float64, int) {
	n := ir.Info.N()
	up := make([]float64, n)
	down := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				up[i] += ir.Believed[i][j]
				down[i] += ir.Believed[j][i]
			}
		}
		if up[i] < 1 {
			up[i] = 1
		}
		if down[i] < 1 {
			down[i] = 1
		}
	}
	total := 0.0
	for _, b := range layout {
		total += b
	}
	obj := func(p spark.Placement) float64 {
		if stage.Kind == spark.MapKind {
			// Iridium moves input only when tasks leave the data; use
			// the same upload/download model on the migration volume.
			worst, sum := 0.0, 0.0
			for i := 0; i < n; i++ {
				deficit := total*p[i] - layout[i]
				var t float64
				if deficit < 0 {
					t = -deficit * 8 / (up[i] * 1e6)
				} else {
					t = deficit * 8 / (down[i] * 1e6)
				}
				sum += t
				if t > worst {
					worst = t
				}
			}
			return worst + 1e-3*sum
		}
		worst, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			tu := layout[i] * (1 - p[i]) * 8 / (up[i] * 1e6)
			td := (total - layout[i]) * p[i] * 8 / (down[i] * 1e6)
			t := math.Max(tu, td)
			sum += t
			if t > worst {
				worst = t
			}
		}
		return worst + 1e-3*sum
	}
	return obj, n
}

var (
	_ spark.Scheduler = Locality{}
	_ spark.Scheduler = Tetrium{}
	_ spark.Scheduler = Kimchi{}
	_ spark.Scheduler = Iridium{}
)
