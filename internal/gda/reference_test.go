package gda

import (
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/spark"
)

// This file keeps the pre-optimization scheduler search verbatim — the
// same playbook as netsim's allocateReference and rf's trainReference.
// descendReference is the oracle the search context is locked against
// (TestPlacementOracles and FuzzPlace compare final placements element
// for element) and the benchmark baseline behind
// BenchmarkSchedulerPlaceReference. It is O(n⁴) per descent; past what
// that affords, the screens' oracle is the same harness's exact-only
// PlaceScored. The from-scratch estimators (estimate, estimateDetail,
// estimateAgg) are the objectives those oracles price every candidate
// with: one fresh transfer matrix per call, folded in the canonical
// order the search context replicates.

// estimate returns (seconds, networkUSD) for running the stage with
// placement p over the current layout.
func (e estimator) estimate(stage spark.Stage, layout []float64, p spark.Placement) (float64, float64) {
	secs, _, usd := e.estimateDetail(stage, layout, p)
	return secs, usd
}

// estimateDetail additionally returns the *sum* of per-link and per-DC
// times. Greedy descent on a pure max() objective plateaus (a single
// move cannot lower the max when several DCs tie at it), so schedulers
// add a small multiple of the sum as gradient pressure.
func (e estimator) estimateDetail(stage spark.Stage, layout []float64, p spark.Placement) (secs, loadSum, usd float64) {
	var transfer [][]float64
	if stage.Kind == spark.MapKind {
		transfer = spark.MigrationMatrix(layout, p)
	} else {
		transfer = spark.ShuffleMatrix(layout, p)
	}
	n := e.info.N()
	tNet := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b := transfer[i][j]
			if i == j || b <= 0 {
				continue
			}
			bw := e.believed[i][j]
			// Deliberate 1 Mbps floor: a believed blackout (0 Mbps, or a
			// stale/garbage negative) must still yield a finite — merely
			// enormous — transfer-time estimate, so the greedy descent
			// ranks placements away from the dead link instead of
			// drowning every candidate in the same +Inf (which would
			// erase the gradient entirely and freeze the search at its
			// start). Locked by TestEstimateDetailBlackoutFloor.
			if bw < 1 {
				bw = 1
			}
			t := b * 8 / (bw * 1e6)
			loadSum += t
			if t > tNet {
				tNet = t
			}
			usd += b / 1e9 * e.info.EgressPerGB[i]
		}
	}
	total := 0.0
	for _, b := range layout {
		total += b
	}
	tComp := 0.0
	for j := 0; j < n; j++ {
		share := total * p[j]
		if share <= 0 {
			continue
		}
		rate := e.info.ComputeRates[j]
		if rate <= 0 {
			rate = 1e-6
		}
		t := share / 1e9 * stage.SecPerGB / rate
		loadSum += t
		if t > tComp {
			tComp = t
		}
	}
	return tNet + tComp, loadSum, usd
}

// estimateAgg is estimateDetail extended with the carbon aggregate:
// the Secs/LoadSum/USD fields evaluate the identical expressions in
// the identical order (locked bit-equal by
// TestEstimateAggMatchesDetail), and KgCO2 accumulates each network
// entry's sender-attributed transport carbon followed by each DC's
// compute carbon — the canonical order the search context's carbon
// delta paths replicate. This is the full-evaluation oracle behind
// placeScorerReference.
func (e estimator) estimateAgg(stage spark.Stage, layout []float64, p spark.Placement) Aggregates {
	var transfer [][]float64
	if stage.Kind == spark.MapKind {
		transfer = spark.MigrationMatrix(layout, p)
	} else {
		transfer = spark.ShuffleMatrix(layout, p)
	}
	n := e.info.N()
	var a Aggregates
	tNet := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b := transfer[i][j]
			if i == j || b <= 0 {
				continue
			}
			bw := e.believed[i][j]
			if bw < 1 {
				bw = 1
			}
			t := b * 8 / (bw * 1e6)
			a.LoadSum += t
			if t > tNet {
				tNet = t
			}
			a.USD += b / 1e9 * e.info.EgressPerGB[i]
			a.KgCO2 += b / 1e9 * coefAt(e.info.CarbonPerGB, i)
		}
	}
	total := 0.0
	for _, b := range layout {
		total += b
	}
	tComp := 0.0
	for j := 0; j < n; j++ {
		share := total * p[j]
		if share <= 0 {
			continue
		}
		rate := e.info.ComputeRates[j]
		if rate <= 0 {
			rate = 1e-6
		}
		t := share / 1e9 * stage.SecPerGB / rate
		a.LoadSum += t
		if t > tComp {
			tComp = t
		}
		a.KgCO2 += t * coefAt(e.info.CarbonPerCompSec, j)
	}
	a.Secs = tNet + tComp
	return a
}

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

// placeScorerReference is the full-evaluation oracle for PlaceScored:
// the same three starts and descendReference moves, with every
// candidate priced by sc.Score over estimateAgg's from-scratch
// aggregates (fresh transfer matrix per evaluation, no caches, no
// screens). TestPlacementOracles locks PlaceScored to this element for
// element, for every registered scorer. Under JCT it is the original
// Tetrium.Place: the same starts, descents and objective, since JCT
// scores estimateDetail's secs + 1e-3·loadSum + 0.05·usd.
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

// placeKimchiReference is the original Kimchi.Place's dollar phase from
// fast, the reference Tetrium placement (placeScorerReference under
// JCT): it re-estimates the placement that descent had already scored
// for the latency envelope, then descends on dollars from it.
func placeKimchiReference(k Kimchi, stage spark.Stage, layout []float64, fast spark.Placement) spark.Placement {
	slack := k.Slack
	if slack == 0 {
		slack = 0.10
	}
	est := estimator{believed: k.Believed, info: k.Info}
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
