package gda

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// countingScorer counts its Score calls: the work of a descent, seen
// from outside the search.
type countingScorer struct {
	Scorer
	calls *int
}

func (c countingScorer) Score(a Aggregates) float64 {
	*c.calls++
	return c.Scorer.Score(a)
}

// TestPlaceDescendsEachDistinctStartOnce checks that the multi-start
// search runs one descent per distinct start: PlaceScored scores
// exactly as many candidates as descend run once from each distinct
// start. Heterogeneous compute rates give three distinct starts, one
// shared rate two (compute-proportional is uniform), and one shared
// rate over an even layout one (locality is uniform too).
func TestPlaceDescendsEachDistinctStartOnce(t *testing.T) {
	info, believed, layout := benchCluster()
	n := info.N()
	shared := info
	shared.ComputeRates = slices.Repeat([]float64{2}, n)
	even := slices.Repeat([]float64{10e9}, n)
	loc, uni := spark.LocalityPlacement(layout), spark.UniformPlacement(n)
	prop := spark.Placement(slices.Clone(info.ComputeRates)).Normalize()
	for _, c := range []struct {
		name   string
		info   ClusterInfo
		layout []float64
		starts []spark.Placement // the distinct ones, in search order
	}{
		{"heterogeneous rates", info, layout, []spark.Placement{loc, uni, prop}},
		{"one rate", shared, layout, []spark.Placement{loc, uni}},
		{"one rate, even layout", shared, even, []spark.Placement{uni}},
	} {
		for _, stage := range []spark.Stage{
			{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5},
			{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1},
		} {
			var calls int
			sc := countingScorer{JCT{}, &calls}
			PlaceScored(sc, believed, c.info, stage, c.layout)
			got := calls
			want := 0
			s := getSearch(estimator{believed: believed, info: c.info}, stage, c.layout)
			for _, start := range c.starts {
				calls = 0
				s.descend(start, sc)
				want += calls
			}
			putSearch(s)
			if got != want {
				t.Fatalf("%s stage=%s: PlaceScored scored %d candidates, %d distinct descents score %d",
					c.name, stage.Name, got, len(c.starts), want)
			}
		}
	}
}

// scanMaxExcluding is the per-candidate O(n) loop the top-3 rankings
// replaced, kept here as their oracle.
func scanMaxExcluding(v []float64, a, b int, floor float64) float64 {
	for j, x := range v {
		if j != a && j != b && x > floor {
			floor = x
		}
	}
	return floor
}

// TestTop3MaxExcluding checks the ranking against the scan on random
// vectors with ties, all-zero input and the sizes where fewer than
// three (or no) entries survive the exclusion.
func TestTop3MaxExcluding(t *testing.T) {
	rng := simrand.Derive(5, "gda-top3")
	for _, n := range []int{1, 2, 3, 4, 7, 100} {
		for trial := 0; trial < 40; trial++ {
			v := make([]float64, n)
			switch trial % 4 {
			case 0: // all zero
			case 1: // heavy ties
				for j := range v {
					v[j] = float64(rng.IntN(3))
				}
			case 2: // one value everywhere
				for j := range v {
					v[j] = 2.5
				}
			default:
				for j := range v {
					v[j] = rng.Uniform(0, 10)
				}
			}
			var top top3
			top.fill(v)
			for k, j := range top {
				if (j >= 0) != (k < n) {
					t.Fatalf("n=%d v=%v: top %v has the wrong number of entries", n, v, top)
				}
				if k > 0 && j >= 0 && v[j] > v[top[k-1]] {
					t.Fatalf("n=%d v=%v: top %v not descending", n, v, top)
				}
			}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					for _, floor := range []float64{0, 1, 11} {
						if got, want := top.maxExcluding(v, a, b, floor), scanMaxExcluding(v, a, b, floor); got != want {
							t.Fatalf("n=%d v=%v excl=(%d,%d) floor=%v: top3 %v, scan %v", n, v, a, b, floor, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLow2MinExcluding checks the row screen's ranking against a scan
// on random vectors with ties, for every excluded index.
func TestLow2MinExcluding(t *testing.T) {
	rng := simrand.Derive(6, "gda-low2")
	for _, n := range []int{2, 3, 7, 100} {
		for trial := 0; trial < 40; trial++ {
			v := make([]float64, n)
			var lo low2
			lo.reset()
			for j := range v {
				v[j] = float64(rng.IntN(1 + trial%5)) // trial%5 == 0: all zero
				lo.push(j, v[j])
			}
			for x := range v {
				want := math.Inf(1)
				for j, y := range v {
					if j != x && y < want {
						want = y
					}
				}
				if got := lo.minExcluding(x); got != want {
					t.Fatalf("n=%d v=%v excluding %d: low2 %v, scan %v", n, v, x, got, want)
				}
			}
		}
	}
}

// TestScreenMaxesFreshAfterEveryMove walks descents on shuffle and map
// stages and, after the initial fillBase and after every applyMove,
// checks for every (from, to) that the screens' O(1) maxes — the
// untouched columns' network max and the untouched DCs' compute max —
// equal a scan of the base caches bit for bit, that the compute totals
// the map screen now reads are the in-order sums, and that a map
// stage's support lists are the ascending scans of mapSur > 0 and
// mapDef > 0. A refresh site missed by the top-3 or support bookkeeping
// fails here on the next move.
func TestScreenMaxesFreshAfterEveryMove(t *testing.T) {
	check := func(t *testing.T, s *search, when string) {
		t.Helper()
		isMap := s.stage.Kind == spark.MapKind
		if isMap {
			for _, l := range []struct {
				name string
				got  []int
				v    []float64
			}{{"surplus", s.surIdx, s.mapSur}, {"deficit", s.defIdx, s.mapDef}} {
				var want []int
				for i, x := range l.v {
					if x > 0 {
						want = append(want, i)
					}
				}
				if fmt.Sprint(l.got) != fmt.Sprint(want) {
					t.Fatalf("%s: %s list %v, scan %v", when, l.name, l.got, want)
				}
			}
		}
		colMax := make([]float64, s.n)
		for j := range colMax {
			for _, i := range s.nzRows {
				if v := s.netSecs(i, j, s.layout[i]*s.p[j]); v > colMax[j] {
					colMax[j] = v
				}
			}
		}
		for from := 0; from < s.n; from++ {
			for to := 0; to < s.n; to++ {
				if got, want := s.topComp.maxExcluding(s.comp, from, to, 0), scanMaxExcluding(s.comp, from, to, 0); got != want {
					t.Fatalf("%s: tComp excluding (%d,%d) = %v, scan %v", when, from, to, got, want)
				}
				if isMap {
					continue // the map screen's network max is mapTop/mapRow2/mapCol2
				}
				if got, want := s.topCol.maxExcluding(s.colMaxT, from, to, 0), scanMaxExcluding(colMax, from, to, 0); got != want {
					t.Fatalf("%s: tNet excluding (%d,%d) = %v, scan %v", when, from, to, got, want)
				}
			}
		}
		compSum := 0.0
		for _, c := range s.comp {
			compSum += c
		}
		if s.compSum != compSum {
			t.Fatalf("%s: compSum %v, in-order sum %v", when, s.compSum, compSum)
		}
		for k, l := range s.active() {
			cpuSum := 0.0
			for j, c := range l.cpu {
				cpuSum += s.comp[j] * c
			}
			if l.cpuSum != cpuSum {
				t.Fatalf("%s: slot %d cpuSum %v, in-order sum %v", when, k, l.cpuSum, cpuSum)
			}
		}
	}
	for _, d := range [][2]int{{3, 2}, {8, 5}, {24, 4}} {
		n, nz := d[0], d[1]
		ci, believed, layout := planningProblem(n, nz, uint64(n*9000+nz))
		ci = withCarbon(ci, uint64(n))
		for _, stage := range []spark.Stage{
			{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5},
			{Name: "r", Kind: spark.ReduceKind, SecPerGB: 1.5, Selectivity: 1},
		} {
			for _, sc := range []Scorer{JCT{}, Blend{WJCT: 0.5, WCost: 0.3, WCarbon: 0.2}} {
				label := fmt.Sprintf("n=%d stage=%s scorer=%s", n, stage.Name, sc.Name())
				s := getSearch(estimator{believed: believed, info: ci}, stage, layout)
				moves := exactWalk(s, sc, nil, func(when string) { check(t, s, label+" "+when) })
				if moves == 0 {
					t.Fatalf("%s: the walk accepted no move", label)
				}
				putSearch(s)
			}
		}
	}
}

// TestMergeSupport checks the support merge against hand-built lists:
// from below and above to, the moved DCs at either end of the list,
// entering, leaving and staying in the support, and an empty base.
func TestMergeSupport(t *testing.T) {
	for _, c := range []struct {
		base     []int
		from, to int
		inF, inT bool
		want     []int
	}{
		{[]int{1, 4, 7}, 2, 5, true, true, []int{1, 2, 4, 5, 7}}, // both enter, from < to
		{[]int{1, 4, 7}, 5, 2, true, true, []int{1, 2, 4, 5, 7}}, // both enter, from > to
		{[]int{1, 4, 7}, 4, 2, false, true, []int{1, 2, 7}},      // from leaves, to enters
		{[]int{1, 4, 7}, 2, 4, true, false, []int{1, 2, 7}},      // to leaves, from enters
		{[]int{1, 4, 7}, 1, 7, false, false, []int{4}},           // both ends leave
		{[]int{1, 4, 7}, 7, 1, true, true, []int{1, 4, 7}},       // both ends stay
		{[]int{1, 4, 7}, 0, 9, true, true, []int{0, 1, 4, 7, 9}}, // enter past either end
		{[]int{1, 4, 7}, 9, 0, false, false, []int{1, 4, 7}},     // outside, stay out
		{[]int{1, 4, 7}, 3, 5, false, false, []int{1, 4, 7}},     // inside, stay out
		{nil, 3, 1, true, false, []int{3}},                       // empty base, from enters
		{nil, 3, 1, false, true, []int{1}},                       // empty base, to enters
		{nil, 0, 1, false, false, nil},                           // empty stays empty
		{[]int{2}, 2, 0, false, true, []int{0}},                  // the only DC leaves
	} {
		got := mergeSupport(nil, c.base, c.from, c.to, c.inF, c.inT)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("mergeSupport(%v, from=%d, to=%d, %v, %v) = %v, want %v", c.base, c.from, c.to, c.inF, c.inT, got, c.want)
		}
	}
}

// exactWalk runs descend's loop from the uniform placement with the
// exact evaluators only, so the walk does not depend on the screens.
// It calls cand (if non-nil) for every candidate of every sweep with
// the sweep's step, the best objective the sweep has seen before the
// candidate (descend's rejection threshold) and the candidate's exact
// aggregates, and based after fillBase and after every accepted move;
// it returns the number of moves.
func exactWalk(s *search, sc Scorer, cand func(from, to int, step, pf, pt, bestV float64, exact Aggregates), based func(when string)) int {
	return exactWalkFrom(s, spark.UniformPlacement(s.n), sc, cand, based)
}

// exactWalkFrom is exactWalk from the given start.
func exactWalkFrom(s *search, start spark.Placement, sc Scorer, cand func(from, to int, step, pf, pt, bestV float64, exact Aggregates), based func(when string)) int {
	s.activate(sc)
	normalizeInto(s.p, start)
	s.agg = s.fold(s.fillBase())
	based("after fillBase")
	best, moves := sc.Score(s.agg), 0
	for step := 0.10; step >= 0.005; step /= 2 {
		for {
			bestV, bestFrom, bestTo := best, -1, -1
			for from := 0; from < s.n; from++ {
				if s.p[from] < step {
					continue
				}
				for to := 0; to < s.n; to++ {
					if to == from {
						continue
					}
					pf, pt := s.p[from]-step, s.p[to]+step
					eval := s.evalShuffleCand
					if s.isMap {
						eval = s.evalMapCand
					}
					a := eval(from, to, pf, pt)
					if cand != nil {
						cand(from, to, step, pf, pt, bestV, a)
					}
					if v := sc.Score(a); v < bestV-1e-9 {
						bestV, bestFrom, bestTo = v, from, to
					}
				}
			}
			if bestFrom < 0 {
				break
			}
			s.applyMove(bestFrom, bestTo, step)
			best = bestV
			moves++
			based(fmt.Sprintf("after move %d (%d→%d)", moves, bestFrom, bestTo))
		}
	}
	return moves
}

// TestScreenBoundsUnderstateEveryCandidate checks the screens' contract
// per aggregate rather than through the placement: for every candidate
// of every sweep of an exact walk, each aggregate of the bound screen
// or mapScreen returns is at most the exact evalShuffleCand /
// evalMapCand aggregate plus the margin. On shuffle stages the screen
// is exact up to its margin — every sum is a rearranged exact sum and
// every max an exact max — so there the exact aggregate must also be
// at most the bound plus the margin, which is what catches a bound that
// drops or mis-scales one slot's term. Map walks also start from the
// locality placement, whose base migrates nothing: there a candidate's
// migration is its own two corners, which mapScreen prices exactly, so
// until the first move it must be exact up to its margin too. The map
// row screen's bound for the candidate's from must understate the
// candidate too (every candidate whose to is not a base surplus DC: the
// rest are screened one by one). On shuffle stages, the row bound at
// the destination's own rank must understate the candidate; rejection
// must be monotone in the rank, with the cutoff its first rejecting
// rank; and every destination ranked at or past the cutoff must have an
// exact score of at least bestV − 1e-9, so the cutoff turns away no
// candidate descend would accept. Both ends of the shuffle near-miss
// bracket must have the exact Secs bit for bit and each sum between
// them, with no margin; every shuffle walk must see its low end turn
// some candidate away. Every walk must turn away at least one whole
// row, or this test would pass on a row screen that never fires. A
// scorer that is not ScreenSafe must filter nothing: its descent from
// the same start evaluates every candidate of the walk exactly and runs
// no per-pair screen.
func TestScreenBoundsUnderstateEveryCandidate(t *testing.T) {
	scorers := []Scorer{JCT{}, Cost{BudgetS: 120}, Carbon{}, Blend{WJCT: 0.5, WCost: 0.3, WCarbon: 0.2}}
	type rowID struct {
		base string
		step float64
		from int
	}
	for _, d := range [][2]int{{3, 2}, {8, 5}, {24, 4}} {
		n, nz := d[0], d[1]
		ci, believed, layout := planningProblem(n, nz, uint64(n*7000+nz))
		ci = withCarbon(ci, uint64(n*7000+nz))
		for _, stage := range []spark.Stage{
			{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5},
			{Name: "r", Kind: spark.ReduceKind, SecPerGB: 1.5, Selectivity: 1},
		} {
			type start struct {
				name string
				p    spark.Placement
			}
			starts := []start{{"uniform", spark.UniformPlacement(n)}}
			if stage.Kind == spark.MapKind {
				starts = append(starts, start{"locality", spark.LocalityPlacement(layout)})
			}
			for _, st := range starts {
				for _, sc := range scorers {
					label := fmt.Sprintf("n=%d stage=%s start=%s scorer=%s", n, stage.Name, st.name, sc.Name())
					s := getSearch(estimator{believed: believed, info: ci}, stage, layout)
					checked, rowsRejected, turnedAway, nearMissed, candidates, base := 0, 0, 0, 0, 0, ""
					var lastRow rowID
					requireBelow := func(what string, from, to int, lb Aggregates, margin float64, exact Aggregates, tight bool) {
						for _, f := range []struct {
							name       string
							bound, got float64
						}{
							{"Secs", lb.Secs, exact.Secs},
							{"LoadSum", lb.LoadSum, exact.LoadSum},
							{"USD", lb.USD, exact.USD},
							{"KgCO2", lb.KgCO2, exact.KgCO2},
						} {
							if f.bound > f.got+margin || (tight && f.got > f.bound+margin) {
								t.Fatalf("%s %s, move %d→%d: %s %s bound %v, exact %v, margin %v",
									label, base, from, to, what, f.name, f.bound, f.got, margin)
							}
						}
					}
					// mapRowBound checks the map row screen's bound against the
					// candidate and counts the row once if it turns it away.
					mapRowBound := func(what string, from, to int, step, bestV float64, rb Aggregates, rowMargin float64, exact Aggregates) {
						requireBelow(what, from, to, rb, rowMargin, exact, false)
						if row := (rowID{base, step, from}); row != lastRow {
							lastRow = row
							if sc.Score(rb)-rowMargin >= bestV-1e-9 {
								rowsRejected++
							}
						}
					}
					exactWalkFrom(s, st.p, sc, func(from, to int, step, pf, pt, bestV float64, exact Aggregates) {
						candidates++
						if s.isMap {
							if lb, margin := s.mapScreen(from, to, pf, pt); !math.IsInf(margin, 1) { // an infinite margin never rejects
								checked++
								requireBelow("mapScreen", from, to, lb, margin, exact, st.name == "locality" && base == "after fillBase")
							}
							if s.mapSur[to] == 0 {
								rb, rowMargin := s.mapRowScreen(from, pf, step)
								mapRowBound("mapRowScreen", from, to, step, bestV, rb, rowMargin, exact)
							}
							return
						}
						row := s.row(from, pf)
						lb, margin := s.screen(&row, to, pt)
						checked++
						requireBelow("screen", from, to, lb, margin, exact, true)
						lo, hi := s.nearMiss(from, to, pf, pt)
						for _, nm := range []Aggregates{lo, hi} {
							if math.Float64bits(nm.Secs) != math.Float64bits(exact.Secs) {
								t.Fatalf("%s %s, move %d→%d: nearMiss Secs %v, exact %v", label, base, from, to, nm.Secs, exact.Secs)
							}
						}
						requireBelow("nearMiss low", from, to, lo, 0, exact, false)
						requireBelow("the exact value under nearMiss's high end", from, to, exact, 0, hi, false)
						if sc.Score(lo) >= bestV-1e-9 {
							nearMissed++
						}
						rb, rowMargin := s.rowBound(&row, step)
						cut := s.cutoff(&row, step, bestV, sc)
						for k := 0; k < n; k++ {
							rb.LoadSum = s.loadAt(&row, step, k)
							if rejects := sc.Score(rb)-rowMargin >= bestV-1e-9; rejects != (k >= cut) {
								t.Fatalf("%s %s, row %d step %v: rank %d rejects=%v, cutoff %d", label, base, from, step, k, rejects, cut)
							}
						}
						rb.LoadSum = s.loadAt(&row, step, s.rank[to])
						requireBelow("rowBound", from, to, rb, rowMargin, exact, false)
						if row := (rowID{base, step, from}); row != lastRow {
							lastRow = row
							if cut == 0 {
								rowsRejected++
							}
						}
						if s.rank[to] >= cut {
							turnedAway++
							if v := sc.Score(exact); v < bestV-1e-9 {
								t.Fatalf("%s %s, move %d→%d step %v: rank %d at or past cutoff %d, but exact score %v improves on %v",
									label, base, from, to, step, s.rank[to], cut, v, bestV)
							}
						}
					}, func(when string) { base = when })
					if checked == 0 {
						t.Fatalf("%s: no candidate was screened", label)
					}
					if rowsRejected == 0 {
						t.Fatalf("%s: the row screen rejected no row", label)
					}
					if !s.isMap && turnedAway == 0 {
						t.Fatalf("%s: the cutoff turned away no candidate", label)
					}
					if !s.isMap && nearMissed == 0 {
						t.Fatalf("%s: nearMiss turned away no candidate", label)
					}
					s.exact, s.screened = 0, 0
					s.descend(st.p, exactOnly{sc})
					if s.exact != candidates || s.screened != 0 {
						t.Fatalf("%s: a scorer that is not ScreenSafe evaluated %d of the walk's %d candidates exactly and ran %d screens",
							label, s.exact, candidates, s.screened)
					}
					putSearch(s)
				}
			}
		}
	}
}

// TestCandidateAggregatesMatchEstimateAgg holds the exact evaluator to
// the from-scratch estimator per candidate, not only through the
// placements it leads to: for every candidate of every sweep of an
// exact walk, the aggregates evalShuffleCand / evalMapCand return must
// equal, bit for bit, estimateAgg of the candidate placement (KgCO2
// reads 0 while the scorer leaves the carbon slot inactive). Fully
// dense layouts (nz = n) are covered beside the fleet-sparse ones.
func TestCandidateAggregatesMatchEstimateAgg(t *testing.T) {
	for _, d := range [][2]int{{3, 2}, {8, 5}, {8, 8}, {24, 4}} {
		n, nz := d[0], d[1]
		ci, believed, layout := planningProblem(n, nz, uint64(n*5000+nz))
		ci = withCarbon(ci, uint64(n*5000+nz))
		est := estimator{believed: believed, info: ci}
		for _, stage := range []spark.Stage{
			{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5},
			{Name: "r", Kind: spark.ReduceKind, SecPerGB: 1.5, Selectivity: 1},
		} {
			for _, sc := range []Scorer{JCT{}, Blend{WJCT: 0.5, WCost: 0.3, WCarbon: 0.2}} {
				label := fmt.Sprintf("n=%d nz=%d stage=%s scorer=%s", n, nz, stage.Name, sc.Name())
				s := getSearch(est, stage, layout)
				cand, checked, base := make(spark.Placement, n), 0, ""
				exactWalk(s, sc, func(from, to int, step, pf, pt, bestV float64, got Aggregates) {
					copy(cand, s.p)
					cand[from], cand[to] = pf, pt
					want := est.estimateAgg(stage, layout, cand)
					if !sc.NeedsCarbon() {
						want.KgCO2 = 0
					}
					checked++
					for _, f := range []struct {
						name      string
						got, want float64
					}{
						{"Secs", got.Secs, want.Secs},
						{"LoadSum", got.LoadSum, want.LoadSum},
						{"USD", got.USD, want.USD},
						{"KgCO2", got.KgCO2, want.KgCO2},
					} {
						if math.Float64bits(f.got) != math.Float64bits(f.want) {
							t.Fatalf("%s %s, move %d→%d step %v: %s %v, estimateAgg %v",
								label, base, from, to, step, f.name, f.got, f.want)
						}
					}
				}, func(when string) { base = when })
				if checked == 0 {
					t.Fatalf("%s: the walk evaluated no candidate", label)
				}
				putSearch(s)
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
		ci, believed, layout := planningProblem(n, 0, uint64(n)*7+3)

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
// placement only — no per-candidate garbage): a reduce stage at n = 8,
// and a map stage on a 100-DC fleet, whose support lists must live in
// the pooled context too.
func TestPlaceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	ci, believed, layout := planningProblem(8, 0, 99)
	fleetCI, fleetBelieved, fleetLayout := planningProblem(100, 6, 100006)
	for _, c := range []struct {
		tet    Tetrium
		stage  spark.Stage
		layout []float64
		runs   int // a 100-DC map Place takes ~0.3 s
	}{
		{Tetrium{Believed: believed, Info: ci}, spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}, layout, 20},
		{Tetrium{Believed: fleetBelieved, Info: fleetCI}, spark.Stage{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5}, fleetLayout, 1},
	} {
		c.tet.Place(0, c.stage, c.layout) // warm the pool
		avg := testing.AllocsPerRun(c.runs, func() { c.tet.Place(0, c.stage, c.layout) })
		// Reference needs thousands of allocations per Place (a fresh
		// candidate slice per move evaluation plus a rebuilt matrix per
		// estimate); the context needs a handful of fixed ones.
		if avg > 12 {
			t.Fatalf("n=%d stage %s: Tetrium.Place allocates %.1f times per call in steady state", len(c.layout), c.stage.Name, avg)
		}
	}
}

// evalCounts leases a context for the problem, runs place on it and
// returns how many candidates it evaluated exactly (search.exact) and
// how many per-pair screens it ran (search.screened): what the row
// screens and the per-pair screens left of one Place.
func evalCounts(believed bwmatrix.Matrix, info ClusterInfo, stage spark.Stage, layout []float64, place func(*search)) (exact, screened int) {
	s := getSearch(estimator{believed: believed, info: info}, stage, layout)
	defer putSearch(s)
	place(s)
	return s.exact, s.screened
}

// TestExactEvaluationsPinned pins how many per-pair screens one Tetrium
// Place runs and how many candidates it evaluates exactly, on fixed
// stages: benchCluster's map and reduce stages, a 100-DC fleet's map
// stage with data on 6 DCs, and fleetShuffles' six (summed). The
// screens only reject, so a screen that turns away less keeps every
// placement and shows only here. A change that makes a screen turn away
// more lowers a count and re-pins it. Before map stages priced a move's
// own corners and screened whole rows, the map stages evaluated 326 and
// 69,904 candidates exactly; before shuffle rows were cut at a ranked
// destination, the reduce stages ran 1,260 and 285,516 per-pair screens;
// before nearMiss bracketed the shuffle moves that pass the screen, the
// reduce stages evaluated 92 and 2,118 candidates exactly.
func TestExactEvaluationsPinned(t *testing.T) {
	mapStage := spark.Stage{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5}
	reduce := spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}
	info, believed, layout := benchCluster()
	fleetInfo, fleetBelieved, fleetLayout := planningProblem(100, 6, 100006)
	shufInfo, shufBelieved, shufStage, shufLayouts := fleetShuffles()
	tetrium := func(s *search) { s.placeMultiStart(JCT{}) }
	for _, c := range []struct {
		name                  string
		info                  ClusterInfo
		believed              bwmatrix.Matrix
		stage                 spark.Stage
		layouts               [][]float64
		wantExact, wantScreen int
	}{
		{"benchCluster map stage", info, believed, mapStage, [][]float64{layout}, 120, 1240},
		{"benchCluster reduce stage", info, believed, reduce, [][]float64{layout}, 34, 644},
		{"n=100 nz=6 map stage", fleetInfo, fleetBelieved, mapStage, [][]float64{fleetLayout}, 67925, 307345},
		{"fleetShuffles, all six", shufInfo, shufBelieved, shufStage, shufLayouts, 187, 41980},
	} {
		exact, screened := 0, 0
		for _, layout := range c.layouts {
			e, sc := evalCounts(c.believed, c.info, c.stage, layout, tetrium)
			exact, screened = exact+e, screened+sc
		}
		if exact != c.wantExact || screened != c.wantScreen {
			t.Errorf("%s: %d exact evaluations and %d per-pair screens, pinned %d and %d",
				c.name, exact, screened, c.wantExact, c.wantScreen)
		}
	}
}

// fleetShuffles are sparse100's six regional shuffle stages: the
// believed matrix is the per-connection caps of the benchmark's 100-DC
// fleet (four t2.medium VMs a DC, so one compute rate everywhere), and
// each region's TeraSort sort stage reads 150 GB of map output held on 6
// adjacent DCs, 16 apart from one region to the next. (Tetrium keeps
// each region's map stage where its input is at these caps, so the map
// output is the input's even layout.)
func fleetShuffles() (ClusterInfo, bwmatrix.Matrix, spark.Stage, [][]float64) {
	const dcs, regions, hot = 100, 6, 6
	sim := netsim.NewSim(netsim.FleetCluster(dcs, 4, substrate.T2Medium, 2025))
	layouts := make([][]float64, regions)
	for r := range layouts {
		layouts[r] = make([]float64, dcs)
		for k := range hot {
			layouts[r][r*(dcs/regions)+k] = 150e9 / hot
		}
	}
	stage := spark.Stage{Name: "sort", Kind: spark.ReduceKind, SecPerGB: 16, Selectivity: 1}
	return NewClusterInfo(sim, cost.DefaultRates()), sim.PerConnCapMatrix(), stage, layouts
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

// reportCounts prints a screened benchmark's per-Place work beside its
// time: per-pair screens run and candidates evaluated exactly.
func reportCounts(b *testing.B, exact, screened int) {
	b.ReportMetric(float64(exact), "exact/op")
	b.ReportMetric(float64(screened), "screened/op")
}

func BenchmarkSchedulerPlace(b *testing.B) {
	info, believed, layout := benchCluster()
	stage := spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}
	kim := Kimchi{Believed: believed, Info: info}
	exact, screened := evalCounts(believed, info, stage, layout, func(s *search) { kim.descend(s) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kim.Place(0, stage, layout)
	}
	reportCounts(b, exact, screened)
}

// BenchmarkSchedulerPlaceUniformRates is BenchmarkSchedulerPlace with
// one compute rate at every DC — the paper's testbed, one instance type
// in every region — where the compute-proportional start is the uniform
// start and the search descends from it once.
func BenchmarkSchedulerPlaceUniformRates(b *testing.B) {
	info, believed, layout := benchCluster()
	for i := range info.ComputeRates {
		info.ComputeRates[i] = 2
	}
	stage := spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}
	kim := Kimchi{Believed: believed, Info: info}
	exact, screened := evalCounts(believed, info, stage, layout, func(s *search) { kim.descend(s) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kim.Place(0, stage, layout)
	}
	reportCounts(b, exact, screened)
}

func BenchmarkSchedulerPlaceReference(b *testing.B) {
	info, believed, layout := benchCluster()
	stage := spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}
	kim := Kimchi{Believed: believed, Info: info}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placeKimchiReference(kim, stage, layout, placeScorerReference(JCT{}, believed, info, stage, layout))
	}
}

// BenchmarkSchedulerPlaceBlend times the carbon slot: a three-way blend
// on benchCluster with each DC's grid carbon filled in from the default
// energy rates (a t2.medium's draw per unit of compute rate).
func BenchmarkSchedulerPlaceBlend(b *testing.B) {
	info, believed, layout := benchCluster()
	energy := cost.DefaultEnergyRates()
	n := info.N()
	info.CarbonPerCompSec = make([]float64, n)
	info.CarbonPerGB = make([]float64, n)
	for i, r := range info.Regions {
		info.CarbonPerCompSec[i] = energy.ComputeKgCO2PerSec(11*info.ComputeRates[i], r)
		info.CarbonPerGB[i] = energy.WANKgCO2PerGB(r)
	}
	stage := spark.Stage{Name: "r", Kind: spark.ReduceKind, SecPerGB: 2, Selectivity: 1}
	sched := Sched{Scorer: Blend{WJCT: 0.5, WCost: 0.3, WCarbon: 0.2}, Believed: believed, Info: info}
	exact, screened := evalCounts(believed, info, stage, layout, func(s *search) { s.placeMultiStart(sched.Scorer) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Place(0, stage, layout)
	}
	reportCounts(b, exact, screened)
}

// BenchmarkSchedulerPlaceFleetSparse times Tetrium placing one map and
// one reduce stage on a random 100-DC fleet with data on 6 DCs. Its
// believed matrix has about one link in five blacked out or garbage,
// which makes the search a near-tie one: tens of thousands of
// candidates per stage sit within the screens' margin of the running
// best and are evaluated exactly. It times that worst case, not what
// sparse100 spends its planner time in (BenchmarkSchedulerPlaceFleetShuffle).
func BenchmarkSchedulerPlaceFleetSparse(b *testing.B) {
	info, believed, layout := planningProblem(100, 6, 100006)
	stages := []spark.Stage{
		{Name: "m", Kind: spark.MapKind, SecPerGB: 3, Selectivity: 0.5},
		{Name: "r", Kind: spark.ReduceKind, SecPerGB: 1.5, Selectivity: 1},
	}
	tet := Tetrium{Believed: believed, Info: info}
	exact, screened := 0, 0
	for _, stage := range stages {
		e, sc := evalCounts(believed, info, stage, layout, func(s *search) { s.placeMultiStart(JCT{}) })
		exact, screened = exact+e, screened+sc
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, stage := range stages {
			tet.Place(k, stage, layout)
		}
	}
	reportCounts(b, exact, screened)
}

// BenchmarkSchedulerPlaceFleetShuffle times the layer sparse100 spends
// its planner time in: Tetrium placing fleetShuffles' six regional
// reduce stages, one op for all six.
func BenchmarkSchedulerPlaceFleetShuffle(b *testing.B) {
	info, believed, stage, layouts := fleetShuffles()
	tet := Tetrium{Believed: believed, Info: info}
	exact, screened := 0, 0
	for _, layout := range layouts {
		e, sc := evalCounts(believed, info, stage, layout, func(s *search) { s.placeMultiStart(JCT{}) })
		exact, screened = exact+e, screened+sc
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, layout := range layouts {
			tet.Place(1, stage, layout)
		}
	}
	reportCounts(b, exact, screened)
}
