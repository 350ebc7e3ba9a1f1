package gda

import (
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/spark"
)

// This file keeps the pre-optimization scheduler search verbatim — the
// same playbook as netsim's allocateReference and rf's trainReference.
// descendReference is the oracle the delta-evaluated search context is
// locked against (TestPlaceMatchesReference compares final placements
// element for element across randomized clusters) and the benchmark
// baseline behind BenchmarkSchedulerPlaceReference. It is O(n⁴) per
// descent; past what that affords, the screens' oracle is
// TestScreensNeverChangeThePlacement.

// descendReference greedily improves a placement under the given
// objective (lower is better), moving probability mass between DCs in
// shrinking steps — the original descend: a fresh candidate Placement
// is allocated for every single-move evaluation, and each objective
// call rebuilds the full O(n²) transfer matrix. It is deterministic and
// terminates after the step underflows.
//
// The original tracked an `improved` flag across each sweep and then
// halved the step identically in both arms of `if !improved`; the dead
// branch is collapsed here (and in the optimized search) — same
// descent, locked by the experiment goldens. See gda.go for the
// restart-at-full-step alternative we deliberately did not take.
func descendReference(n int, start spark.Placement, objective func(spark.Placement) float64) spark.Placement {
	p := append(spark.Placement(nil), start.Normalize()...)
	best := objective(p)
	step := 0.10
	for step >= 0.005 {
		for {
			var bestP spark.Placement
			bestV := best
			for from := 0; from < n; from++ {
				if p[from] < step {
					continue
				}
				for to := 0; to < n; to++ {
					if to == from {
						continue
					}
					cand := append(spark.Placement(nil), p...)
					cand[from] -= step
					cand[to] += step
					if v := objective(cand); v < bestV-1e-9 {
						bestV = v
						bestP = cand
					}
				}
			}
			if bestP == nil {
				break
			}
			p, best = bestP, bestV
		}
		step /= 2
	}
	return p
}

// placeTetriumReference is the original Tetrium.Place: one estimator
// per call, three descents, and a final re-evaluation of each descent's
// result (the value descend already knew).
func placeTetriumReference(t Tetrium, stage spark.Stage, layout []float64) spark.Placement {
	est := estimator{believed: t.Believed, info: t.Info}
	obj := func(p spark.Placement) float64 {
		secs, loadSum, usd := est.estimateDetail(stage, layout, p)
		return secs + 1e-3*loadSum + 0.05*usd
	}
	n := t.Info.N()
	starts := []spark.Placement{
		spark.LocalityPlacement(layout),
		spark.UniformPlacement(n),
		spark.Placement(append([]float64(nil), t.Info.ComputeRates...)).Normalize(),
	}
	var best spark.Placement
	bestV := 0.0
	for i, s := range starts {
		cand := descendReference(n, s, obj)
		if v := obj(cand); i == 0 || v < bestV {
			best, bestV = cand, v
		}
	}
	return best
}

// placeScorerReference is the full-evaluation oracle for PlaceScored:
// the same three starts and descendReference moves, with every
// candidate priced by sc.Score over estimateAgg's from-scratch
// aggregates (fresh transfer matrix per evaluation, no caches, no
// screens). TestScorerPlaceMatchesReference locks PlaceScored to this
// element for element, for every registered scorer.
func placeScorerReference(sc Scorer, believed bwmatrix.Matrix, info ClusterInfo, stage spark.Stage, layout []float64) spark.Placement {
	est := estimator{believed: believed, info: info}
	obj := func(p spark.Placement) float64 {
		return sc.Score(est.estimateAgg(stage, layout, p))
	}
	n := info.N()
	starts := []spark.Placement{
		spark.LocalityPlacement(layout),
		spark.UniformPlacement(n),
		spark.Placement(append([]float64(nil), info.ComputeRates...)).Normalize(),
	}
	var best spark.Placement
	bestV := 0.0
	for i, s := range starts {
		cand := descendReference(n, s, obj)
		if v := obj(cand); i == 0 || v < bestV {
			best, bestV = cand, v
		}
	}
	return best
}

// placeKimchiReference is the original Kimchi.Place: it re-runs the
// full three-start Tetrium descent for the latency envelope, then
// re-estimates the placement that descent had already scored.
func placeKimchiReference(k Kimchi, stage spark.Stage, layout []float64) spark.Placement {
	slack := k.Slack
	if slack == 0 {
		slack = 0.10
	}
	est := estimator{believed: k.Believed, info: k.Info}
	fast := placeTetriumReference(Tetrium{Believed: k.Believed, Info: k.Info}, stage, layout)
	tBest, _ := est.estimate(stage, layout, fast)
	budget := tBest * (1 + slack)

	obj := func(p spark.Placement) float64 {
		secs, usd := est.estimate(stage, layout, p)
		if secs > budget {
			return usd + 1e6*(secs-budget)
		}
		return usd
	}
	return descendReference(k.Info.N(), fast, obj)
}

// placeIridiumReference runs Iridium's two descents through the
// allocating reference search (the live path uses descendGeneric, which
// reuses one candidate buffer).
func placeIridiumReference(ir Iridium, stage spark.Stage, layout []float64) spark.Placement {
	obj, n := ir.objective(stage, layout)
	a := descendReference(n, spark.LocalityPlacement(layout), obj)
	b := descendReference(n, spark.UniformPlacement(n), obj)
	if obj(a) <= obj(b) {
		return a
	}
	return b
}
