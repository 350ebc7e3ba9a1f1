package gda

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/wanify/wanify/internal/spark"
)

// search is the reusable context behind the estimator-based scheduler
// descents (every Scorer-composed scheduler: Tetrium, Kimchi, the
// cost/carbon/blend Scheds). The reference search re-allocates a
// candidate Placement and rebuilds the full O(n²) Shuffle/Migration
// matrix for every single-move candidate at every step level; the
// context prices a candidate in one allocation-free pass instead.
//
// Exact evaluation. Both stage kinds plan their transfer as an outer
// product of a row and a column factor — a shuffle entry is
// layout[i]·p[j], a migration entry surplus[i]·deficitRatio[j] — and
// fold builds each entry from its two factors and reduces it straight
// into the aggregates, over the rows × columns that can be nonzero. It
// is the one exact evaluator: the base of every sweep and each
// candidate the screens cannot settle, of both kinds, and no per-entry
// value outlives it.
//
//   - Shuffle stages: a candidate swaps p[from], p[to] and the two
//     compute terms into the base, folds nzRows × every DC, and swaps
//     them back.
//   - Map stages: migration volumes couple every entry through the
//     total deficit, so a move rescales every entry. A candidate swaps
//     its surplus/deficit split at from and to into the base's, merges
//     from/to into the base's surplus and deficit DC lists, writes its
//     own deficit ratios (apart from the base's, which the map screen
//     reads) and folds surplus × deficit alone.
//
// Objectives. Seconds (the max-shaped Secs and the LoadSum pressure)
// are the search's own state. Every other aggregate is linear: a
// per-entry term b/1e9·net[src] plus, optionally, a per-DC compute
// term comp[j]·cpu[j]. Each such objective is one `linear` slot — slot
// 0 egress dollars (Aggregates.USD, no compute term), slot 1
// Aggregates.KgCO2 — and every fill, refresh, fold and screen operation
// on it is written once. The first k slots are active: slot 1 only
// while the scorer needs it. An inactive slot reads as an exact 0 in
// the aggregates and adds nothing to the screens' margins, which keeps
// the single-slot path's bits free of slot 1.
//
// Bit-exactness contract (locked by TestPlacementOracles,
// TestCandidateAggregatesMatchEstimateAgg and the experiment goldens):
// every term fold builds is produced by exactly the float expressions
// the from-scratch estimators (estimateDetail/estimateAgg,
// reference_test.go) evaluate, and every aggregate is reduced over the
// entries in their canonical row-major order, each in its own
// accumulator. Skipping an entry the reference skips leaves out an
// exact +0.0 — an identity on the non-negative partial sums involved —
// but sums are never delta-updated, because floating-point addition
// does not associate; the re-reduction is the price of returning the
// identical bits.
//
// Sparsity: fleet-shaped problems place a job's data on a handful of
// DCs out of hundreds, so the transfer matrices are mostly zero rows
// (a shuffle row i is layout[i]·p[j]; a migration row is nonzero only
// for surplus DCs, and surplus requires layout > 0). Shuffle paths
// iterate nzRows — the source DCs with layout[i] > 0 — and map paths
// the surplus × deficit support instead of all n²: skipped entries are
// exact +0.0 contributions, so sums and maxes are bit-identical to the
// dense sweep.
//
// Contexts are pooled (schedulers are stateless values, and parallel
// tests call them concurrently) and reach zero steady-state
// allocations after the first Place at a given cluster size.
type search struct {
	n      int
	est    estimator
	stage  spark.Stage
	isMap  bool
	layout []float64
	total  float64 // sum(layout), accumulated in estimateDetail's order
	nzRows []int   // source DCs with layout[i] > 0, ascending
	all    []int   // every DC, ascending: a shuffle's columns

	bwDen  []float64 // n×n flattened: floored believed BW × 1e6 (denominators)
	secMin []float64 // per nzRow i: min_{j≠i} 8/den[i][j], a byte's fastest way out
	rate   []float64 // per-DC compute rate with estimateDetail's 1e-6 floor

	p spark.Placement // current placement (owned buffer)

	sec  slab      // the network seconds' screening sums
	comp []float64 // per-DC compute seconds for p
	agg  Aggregates

	lin     [2]linear // the linear objectives, in Aggregates order
	k       int       // active slots: 1, or 2 while the scorer NeedsCarbon
	prepped int       // slots whose coefficients this lease has filled

	// Map-stage state: the base placement's surplus/deficit split and
	// its per-DC deficit ratios (drB), with a candidate's ratios apart
	// (drC). A migration entry is surplus_i·(deficit_j/totalDeficit)·8/den,
	// so every entry whose DCs are untouched by a move scales by the one
	// factor totalDeficit/totalDeficit' — mapScreen's O(1) bound.
	mapSur, mapDef, drB, drC []float64
	mapTotalDef              float64
	mapTop                   [6]mapEntry   // largest base second entries
	mapRow2, mapCol2         [][2]mapEntry // per-row / per-column two largest
	mapRow, mapCol           []float64     // per-row / per-column Σ of the base's seconds
	// The support: the DCs with mapSur > 0 and with mapDef > 0,
	// ascending — the base's (fillBase) and a candidate's (evalMapCand).
	surIdx, defIdx, surC, defC []int

	// Screening aggregates. The scan over the n² single-move candidates
	// is dominated by provably non-improving moves; the screens reject
	// most of them in O(1) flops without divisions. Everything here is
	// APPROXIMATE and used strictly for rejection behind a wide error
	// margin — any candidate that might improve still gets the exact
	// canonical evaluation, or on shuffle stages nearMiss's bracket, whose
	// Secs is exact and whose sums are bounded both ways, so the
	// bit-exact contract is untouched.
	//
	// Placement-independent rates (a shuffle column j's entries are
	// layout[i]·p[j]·8/den, so sums and maxes scale linearly with p[j]
	// to within ulps):
	colRateSum []float64 // Σ_{i≠j} layout[i]·8/den[i][j]
	colRateMax []float64 // max_{i≠j} layout[i]·8/den[i][j]
	compRate   []float64 // total/1e9·SecPerGB/rate[j]
	colMaxT    []float64 // max_i of column j's network seconds
	compSum    float64   // Σ comp
	abs        float64   // the screens' absolute margin term: the seconds', compute and active slots' totals
	rateLow    low2      // over compRate: a compute term's growth per share moved to j
	compLow    low2      // over comp: the least compute term a move's destination starts from
	// The DCs ranked once per lease by LoadSum's growth per share moved
	// to them, colRateSum[j] + compRate[j], ascending (ties by index),
	// and each DC's position in that order: a shuffle row's cutoff.
	ranked []rankedDC
	rank   []int
	// A candidate leaves every column and compute term but from's and
	// to's alone, so the max over the untouched ones is the first of the
	// three largest that is neither — refreshed once per accepted move.
	topCol  top3 // over colMaxT
	topComp top3 // over comp

	starts  [3]spark.Placement // descent start buffers
	bestBuf spark.Placement    // winning placement across starts

	exact    int // candidates the lease evaluated exactly (read by tests)
	screened int // per-pair screens the lease ran (read by tests)
}

// rankedDC is one DC's place in the shuffle cutoff's ranking.
type rankedDC struct {
	key float64 // colRateSum[j] + compRate[j]
	j   int
}

// slab holds one objective's (the seconds' or a linear slot's) sums
// over the base placement's transfer entries, for the screens.
type slab struct {
	colSum []float64 // per-column Σ (shuffle stages)
	total  float64   // Σ colSum; on map stages Σ over the migration entries
}

// sumCols re-derives total from the column sums (O(n) per accepted
// move; avoids error drift across moves).
func (sl *slab) sumCols() {
	sl.total = 0
	for _, c := range sl.colSum {
		sl.total += c
	}
}

// linear is one linear objective's slot. Its value is Σ b/1e9·net[i]
// over the transfer entries (row-major), then, when cpu is non-empty,
// Σ comp[j]·cpu[j] over the DCs — estimateAgg's order. Shuffle-column
// sums scale with p[j] like the seconds columns do, and map entries
// scale by the same surplus/deficit factors, so a slot rides the
// seconds' screen structure unchanged.
type linear struct {
	slab
	net     []float64 // per-source-DC coefficient per GB sent
	cpu     []float64 // per-DC coefficient per compute-second; empty: none
	colRate []float64 // Σ_{i≠j} layout[i]/1e9·net[i] (shuffle screen)
	cpuSum  float64   // Σ comp[j]·cpu[j]
	inc     low2      // over colRate[j] + compRate[j]·cpu[j]: the value's growth per share moved to j
}

// mapEntry is one ranked base migration entry for the map screen.
type mapEntry struct {
	v    float64
	i, j int
}

// top3 holds the indices of a vector's three largest values in
// descending order, -1 where the vector has fewer than three.
type top3 [3]int

// fill ranks v in one pass.
func (t *top3) fill(v []float64) {
	*t = top3{-1, -1, -1}
	for j, x := range v {
		k := len(t)
		for k > 0 && (t[k-1] < 0 || x > v[t[k-1]]) {
			k--
		}
		if k < len(t) {
			copy(t[k+1:], t[k:len(t)-1])
			t[k] = j
		}
	}
}

// maxExcluding raises floor to max_{j∉{a,b}} v[j]. Whichever of tied
// values fill ranked first, the value is the one an in-order scan over
// v returns: max does not depend on order.
func (t *top3) maxExcluding(v []float64, a, b int, floor float64) float64 {
	for _, j := range t {
		if j >= 0 && j != a && j != b {
			if v[j] > floor {
				return v[j]
			}
			break
		}
	}
	return floor
}

// low2 holds a vector's two smallest values and the index of the
// smallest, so the minimum over every index but one is O(1).
type low2 struct {
	j      int
	v0, v1 float64
}

func (l *low2) reset() { *l = low2{j: -1, v0: math.Inf(1), v1: math.Inf(1)} }

func (l *low2) push(j int, x float64) {
	if x < l.v0 {
		l.j, l.v0, l.v1 = j, x, l.v0
	} else if x < l.v1 {
		l.v1 = x
	}
}

// minExcluding is the smallest value at an index other than j.
func (l *low2) minExcluding(j int) float64 {
	if j == l.j {
		return l.v1
	}
	return l.v0
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

// getSearch leases a context from the pool, sized and primed for the
// scheduler's believed matrix, stage and layout.
func getSearch(est estimator, stage spark.Stage, layout []float64) *search {
	s := searchPool.Get().(*search)
	s.init(est, stage, layout)
	return s
}

func putSearch(s *search) {
	// Drop the caller's data (layout slice, believed matrix, cluster
	// info, stage) so an idle pooled context retains only its own
	// scratch slabs.
	s.layout = nil
	s.est = estimator{}
	s.stage = spark.Stage{}
	searchPool.Put(s)
}

// init sizes the scratch slabs and precomputes the placement-invariant
// terms: the bandwidth denominators (with estimateDetail's 1 Mbps
// blackout floor folded in), the floored compute rates, the screens'
// rates and slot 0's coefficients.
func (s *search) init(est estimator, stage spark.Stage, layout []float64) {
	n := est.info.N()
	if s.n != n {
		s.n = n
		s.bwDen = make([]float64, n*n)
		s.sec.colSum = make([]float64, n)
		vec := func() []float64 { return make([]float64, n) }
		s.rate, s.comp, s.compRate, s.colMaxT, s.secMin = vec(), vec(), vec(), vec(), vec()
		s.colRateSum, s.colRateMax = vec(), vec()
		s.mapSur, s.mapDef, s.drB, s.drC = vec(), vec(), vec(), vec()
		s.mapRow, s.mapCol = vec(), vec()
		s.all, s.rank = make([]int, n), make([]int, n)
		s.ranked = make([]rankedDC, n)
		for j := range s.all {
			s.all[j] = j
		}
		s.p, s.bestBuf = vec(), vec()
		for i := range s.starts {
			s.starts[i] = vec()
		}
		s.mapRow2 = make([][2]mapEntry, n)
		s.mapCol2 = make([][2]mapEntry, n)
	}
	s.est, s.stage, s.layout = est, stage, layout
	s.isMap = stage.Kind == spark.MapKind
	s.exact, s.screened = 0, 0
	s.total = 0
	s.nzRows = s.nzRows[:0]
	for i, b := range layout {
		s.total += b
		if b > 0 {
			s.nzRows = append(s.nzRows, i)
		}
	}
	// Denominators are only ever divided into with a positive numerator,
	// which requires layout[i] > 0 (shuffle entries are layout[i]·p[j],
	// migration entries need surplus, surplus needs layout); zero rows
	// are left stale and unread.
	for _, i := range s.nzRows {
		top := 1e6 // the 1 Mbps floor: every denominator's least value
		for j, bw := range est.believed[i][:n] {
			s.bwDen[i*n+j] = max(bw, 1) * 1e6
			if j != i {
				top = max(top, s.bwDen[i*n+j])
			}
		}
		s.secMin[i] = 8 / top
	}
	s.rateLow.reset()
	for j := 0; j < n; j++ {
		s.rate[j] = est.info.ComputeRates[j]
		if s.rate[j] <= 0 {
			s.rate[j] = 1e-6
		}
		sum, mx := 0.0, 0.0
		for _, i := range s.nzRows {
			if i != j {
				r := layout[i] * 8 / s.bwDen[i*n+j]
				sum += r
				mx = max(mx, r)
			}
		}
		s.colRateSum[j], s.colRateMax[j] = sum, mx
		s.compRate[j] = s.total / 1e9 / s.rate[j] * stage.SecPerGB
		s.ranked[j] = rankedDC{key: sum + s.compRate[j], j: j}
		s.rateLow.push(j, s.compRate[j])
	}
	slices.SortFunc(s.ranked, func(a, b rankedDC) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.j, b.j))
	})
	for k, r := range s.ranked {
		s.rank[r.j] = k
	}
	s.lin[0].prep(s, est.info.EgressPerGB, nil)
	s.prepped = 1
}

// activate sets the active slot count for sc, once per descent. Slot
// 1's coefficients are filled on its first use in a lease, so a scorer
// that never reads it never pays for them.
func (s *search) activate(sc Scorer) {
	s.k = 1
	if sc.NeedsCarbon() {
		s.k = 2
	}
	if s.prepped < s.k {
		s.lin[1].prep(s, s.est.info.CarbonPerGB, s.est.info.CarbonPerCompSec)
		s.prepped = s.k
	}
}

// prep sizes the slot (once per context size) and fills its
// coefficients, with ClusterInfo's nil-as-zeros semantics, and its
// placement-independent shuffle column rates (s.compRate is filled).
func (l *linear) prep(s *search, net, cpu []float64) {
	n := s.n
	if len(l.colSum) != n {
		l.colSum = make([]float64, n)
		l.net = make([]float64, n)
		l.colRate = make([]float64, n)
	}
	l.cpu = l.cpu[:0]
	for i := range l.net {
		l.net[i] = coefAt(net, i)
		if cpu != nil {
			l.cpu = append(l.cpu, coefAt(cpu, i))
		}
	}
	l.inc.reset()
	for j := range l.colRate {
		sum := 0.0
		for _, i := range s.nzRows {
			if i != j {
				sum += s.layout[i] / 1e9 * l.net[i]
			}
		}
		l.colRate[j] = sum
		l.inc.push(j, sum+l.cpuShift(j, 0, s.compRate[j]))
	}
}

// active returns the slots the current scorer reads.
func (s *search) active() []linear { return s.lin[:s.k] }

// entry is the slot's exact per-entry expression of estimateAgg.
func (l *linear) entry(i, j int, b float64) float64 {
	if i == j || b <= 0 {
		return 0
	}
	return b / 1e9 * l.net[i]
}

// mig is the slot's value of b bytes migrating out of DC i, wherever
// they go: a migration entry is priced by its source alone, so a
// surplus row's entries sum to its surplus's value (the map screens'
// approximation of entry's fold).
func (l *linear) mig(i int, b float64) float64 { return b / 1e9 * l.net[i] }

// netSecs is estimateDetail's exact per-entry network time.
func (s *search) netSecs(i, j int, b float64) float64 {
	if i == j || b <= 0 {
		return 0
	}
	return b * 8 / s.bwDen[i*s.n+j]
}

// splitSD is MigrationMatrix's surplus/deficit split for DC x holding
// task share px — the builder's exact expressions (rounded as mapFold's).
func (s *search) splitSD(x int, px float64) (sur, def float64) {
	want := float64(s.total * px)
	if s.layout[x] > want {
		return s.layout[x] - want, 0
	}
	return 0, want - s.layout[x]
}

// compTerm is estimateDetail's per-DC compute time for task share pj.
func (s *search) compTerm(pj float64, j int) float64 {
	share := s.total * pj
	if share <= 0 {
		return 0
	}
	return share / 1e9 * s.stage.SecPerGB / s.rate[j]
}

// swap2 stores f, t at v[from], v[to] and returns the values they
// replace; swapping those back restores v.
func swap2(v []float64, from, to int, f, t float64) (float64, float64) {
	v[from], v[to], f, t = f, t, v[from], v[to]
	return f, t
}

// fillBase derives the screens' sums and rankings for the current
// placement s.p, shared by every candidate of the following sweep, and
// returns fold's arguments for its estimate aggregates. Only a
// descent's start folds them: after a move, the aggregates are the
// winning candidate's.
func (s *search) fillBase() (rows, cols []int, rowF, colF []float64) {
	n := s.n
	for j := 0; j < n; j++ {
		s.comp[j] = s.compTerm(s.p[j], j)
	}
	rows, cols, rowF, colF = s.nzRows, s.all, s.layout, s.p
	if s.isMap {
		s.mapTotalDef = 0
		s.surIdx, s.defIdx = s.surIdx[:0], s.defIdx[:0]
		for i := 0; i < n; i++ {
			s.mapSur[i], s.mapDef[i] = s.splitSD(i, s.p[i])
			s.mapTotalDef += s.mapDef[i]
			if s.mapSur[i] > 0 {
				s.surIdx = append(s.surIdx, i)
			}
			if s.mapDef[i] > 0 {
				s.defIdx = append(s.defIdx, i)
			}
		}
		rows, cols, rowF, colF = s.fillMap(), s.defIdx, s.mapSur, s.drB
	} else {
		for j := 0; j < n; j++ {
			s.setColumn(j)
		}
	}
	s.refreshTotals()
	return rows, cols, rowF, colF
}

// fillMap writes the base's deficit ratios to drB and the map screen's
// aggregates over its migration entries — MigrationMatrix's, from the
// split in mapSur/mapDef: the seconds' row and column sums, in index
// order, the ranked second entries, and each active slot's value of the
// surpluses. Only surplus rows × deficit columns hold migration; every
// other entry is zero, adds exact zeros to the sums and ranks nowhere,
// so one pass over the support gives the bits of a full n² sweep. It
// returns the rows that migrate (ratios).
func (s *search) fillMap() []int {
	rows := s.ratios(s.drB, s.surIdx, s.defIdx)
	none := mapEntry{i: -1, j: -1}
	for k := range s.mapTop {
		s.mapTop[k] = none
	}
	for i := range s.mapRow2 {
		s.mapRow2[i], s.mapCol2[i] = [2]mapEntry{none, none}, [2]mapEntry{none, none}
	}
	clear(s.mapRow)
	clear(s.mapCol)
	s.sec.total = 0
	for _, i := range rows {
		sum := 0.0
		for _, j := range s.defIdx {
			e := mapEntry{v: s.netSecs(i, j, s.mapSur[i]*s.drB[j]), i: i, j: j}
			sum += e.v
			s.mapCol[j] += e.v
			// Insertion into the small descending top list.
			for k := len(s.mapTop) - 1; k >= 0 && e.v > s.mapTop[k].v; k-- {
				if k+1 < len(s.mapTop) {
					s.mapTop[k+1] = s.mapTop[k]
				}
				s.mapTop[k] = e
			}
			push2(&s.mapRow2[i], e)
			push2(&s.mapCol2[j], e)
		}
		s.mapRow[i] = sum
		s.sec.total += sum
	}
	for k := range s.active() {
		l := &s.lin[k]
		l.total = 0
		for _, i := range s.surIdx {
			l.total += l.mig(i, s.mapSur[i])
		}
	}
	return rows
}

// push2 keeps in two the two largest entries seen, first wins ties.
func push2(two *[2]mapEntry, e mapEntry) {
	if e.v > two[0].v {
		two[1], two[0] = two[0], e
	} else if e.v > two[1].v {
		two[1] = e
	}
}

// setColumn recomputes base column j's screening sum for every slab
// (and the seconds' max). Shuffle stages only, so the zero layout rows
// — exact zero entries — are skipped.
func (s *search) setColumn(j int) {
	pj := s.p[j]
	sum, max := 0.0, 0.0
	for _, i := range s.nzRows {
		t := s.netSecs(i, j, s.layout[i]*pj)
		sum += t
		if t > max {
			max = t
		}
	}
	s.sec.colSum[j], s.colMaxT[j] = sum, max
	for k := range s.active() {
		l := &s.lin[k]
		sum := 0.0
		for _, i := range s.nzRows {
			sum += l.entry(i, j, s.layout[i]*pj)
		}
		l.colSum[j] = sum
	}
}

// refreshTotals re-derives the screens' totals and rankings from the
// column aggregates (fillMap's totals on map stages) and the compute
// terms, and the margins' absolute term from the totals.
func (s *search) refreshTotals() {
	s.compSum = 0
	s.compLow.reset()
	for j, c := range s.comp {
		s.compSum += c
		s.compLow.push(j, c)
	}
	s.topComp.fill(s.comp)
	if !s.isMap {
		s.sec.sumCols()
		s.topCol.fill(s.colMaxT)
	}
	s.abs = s.sec.total + s.compSum
	for k := range s.active() {
		l := &s.lin[k]
		l.cpuSum = l.foldCPU(0, s.comp)
		if !s.isMap {
			l.sumCols()
		}
		s.abs += l.total + l.cpuSum
	}
}

// foldCPU continues the slot's fold over the compute terms in DC order.
func (l *linear) foldCPU(v float64, comp []float64) float64 {
	comp = comp[:len(l.cpu)]
	for j, c := range l.cpu {
		v += float64(comp[j] * c)
	}
	return v
}

// fold fuses the transfer matrix's construction with estimateAgg's
// fold: entry (i, j) is rowF[i]·colF[j] — a shuffle's layout[i]·p[j], a
// migration's surplus[i]·deficitRatio[j] — over the rows × cols that
// can hold one. Every skipped entry is an exact +0.0 in the reference,
// and the nonzero entries fold in its row-major order, each aggregate
// in its own accumulator, then the compute terms in s.comp by DC
// (finish), so the bits match a full rebuild. Every slot rides this
// pass; an inactive slot's coefficient is 0. Products that feed a sum
// here, in splitSD and in foldCPU are rounded with float64(), so no
// target fuses them into a multiply-add the reference does not perform.
func (s *search) fold(rows, cols []int, rowF, colF []float64) Aggregates {
	n, l0, l1 := s.n, &s.lin[0], &s.lin[1]
	load, tNet, v0, v1 := 0.0, 0.0, 0.0, 0.0
	for _, i := range rows {
		ri, c0, c1 := rowF[i], l0.net[i], 0.0
		if s.k > 1 {
			c1 = l1.net[i]
		}
		den := s.bwDen[i*n : i*n+n]
		for _, j := range cols {
			b := ri * colF[j]
			if b <= 0 || i == j {
				continue
			}
			t := b * 8 / den[j]
			load += t
			if t > tNet {
				tNet = t
			}
			v0 += float64(b / 1e9 * c0)
			v1 += float64(b / 1e9 * c1)
		}
	}
	return s.finish(load, tNet, v0, v1)
}

// finish completes a fold from its network share: the compute seconds
// by DC, then each active slot's compute term. The candidate's own
// compute terms are in s.comp.
func (s *search) finish(load, tNet, v0, v1 float64) Aggregates {
	tComp := 0.0
	for _, c := range s.comp {
		load += c
		if c > tComp {
			tComp = c
		}
	}
	a := Aggregates{Secs: tNet + tComp, LoadSum: load, USD: s.lin[0].foldCPU(v0, s.comp)}
	if s.k > 1 {
		a.KgCO2 = s.lin[1].foldCPU(v1, s.comp)
	}
	return a
}

// evalShuffleCand evaluates the move (from→to, pf/pt being the two
// changed placement entries) for a shuffle stage: the two placement
// entries and compute terms are swapped into the base, fold rebuilds
// the matrix over nzRows × every DC, and the base is swapped back.
func (s *search) evalShuffleCand(from, to int, pf, pt float64) Aggregates {
	cF, cT := swap2(s.comp, from, to, s.compTerm(pf, from), s.compTerm(pt, to))
	pf, pt = swap2(s.p, from, to, pf, pt)
	a := s.fold(s.nzRows, s.all, s.layout, s.p)
	swap2(s.p, from, to, pf, pt)
	swap2(s.comp, from, to, cF, cT)
	return a
}

// evalMapCand evaluates a candidate for a map stage. The migration
// matrix couples every entry through the total deficit, so the
// candidate's surplus/deficit and compute terms at the two moved DCs
// are swapped into the base split, from and to are merged into the
// base's support, the candidate's deficit ratios go to drC, and fold
// rebuilds the matrix over the merged support.
func (s *search) evalMapCand(from, to int, pf, pt float64) Aggregates {
	surF, defF := s.splitSD(from, pf)
	surT, defT := s.splitSD(to, pt)
	s.surC = mergeSupport(s.surC[:0], s.surIdx, from, to, surF > 0, surT > 0)
	s.defC = mergeSupport(s.defC[:0], s.defIdx, from, to, defF > 0, defT > 0)
	surF, surT = swap2(s.mapSur, from, to, surF, surT)
	defF, defT = swap2(s.mapDef, from, to, defF, defT)
	cF, cT := swap2(s.comp, from, to, s.compTerm(pf, from), s.compTerm(pt, to))
	a := s.fold(s.ratios(s.drC, s.surC, s.defC), s.defC, s.mapSur, s.drC)
	swap2(s.comp, from, to, cF, cT)
	swap2(s.mapDef, from, to, defF, defT)
	swap2(s.mapSur, from, to, surF, surT)
	return a
}

// mergeSupport appends to dst, ascending, the support list base with
// from and to taken out, then put back where in says they belong.
func mergeSupport(dst, base []int, from, to int, inF, inT bool) []int {
	moved, in := [2]int{from, to}, [2]bool{inF, inT}
	if from > to {
		moved, in = [2]int{to, from}, [2]bool{inT, inF}
	}
	k := 0
	for x, i := range moved {
		for k < len(base) && base[k] < i {
			dst = append(dst, base[k])
			k++
		}
		if k < len(base) && base[k] == i {
			k++
		}
		if in[x] {
			dst = append(dst, i)
		}
	}
	return append(dst, base[k:]...)
}

// ratios writes each deficit DC's share of the total deficit to dr —
// MigrationMatrix's per-entry division, hoisted per destination — and
// returns the rows that migrate: sur, or none (with dr 0 over def) when
// nothing does. The total folds over def in index order (every other DC
// adds an exact 0 in the builder's fold).
func (s *search) ratios(dr []float64, sur, def []int) []int {
	totalDeficit := 0.0
	for _, j := range def {
		totalDeficit += s.mapDef[j]
	}
	if s.total <= 0 || totalDeficit <= 0 {
		for _, j := range def {
			dr[j] = 0
		}
		return nil
	}
	for _, j := range def {
		dr[j] = s.mapDef[j] / totalDeficit
	}
	return sur
}

// applyMove commits the accepted move into s.p and refreshes the
// screens' state: O(n) column/compute updates for shuffle stages, a
// full re-derivation for map stages, whose every migration entry
// changes through the total deficit. The aggregates are the winning
// candidate's (descend).
func (s *search) applyMove(from, to int, step float64) {
	s.p[from] -= step
	s.p[to] += step
	if s.isMap {
		s.fillBase()
		return
	}
	s.comp[from] = s.compTerm(s.p[from], from)
	s.comp[to] = s.compTerm(s.p[to], to)
	s.setColumn(from)
	s.setColumn(to)
	s.refreshTotals()
}

// clamp0 floors a screen's sum at 0; a −0 or NaN passes, harmlessly.
func clamp0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// cpuShift is the slot's change when DC j's compute goes from was to now.
func (l *linear) cpuShift(j int, was, now float64) float64 {
	if len(l.cpu) == 0 {
		return 0
	}
	return now*l.cpu[j] - was*l.cpu[j]
}

// shuffleRow is the part of a shuffle move's screen without to: from's
// column and compute term at pf, every other column and DC at its base.
type shuffleRow struct {
	from           int
	netF, cF, load float64    // from's column max and compute term; LoadSum
	v              [2]float64 // each active slot's value
}

func (s *search) row(from int, pf float64) shuffleRow {
	r := shuffleRow{from: from, netF: pf * s.colRateMax[from], cF: pf * s.compRate[from]}
	r.load = s.sec.total - s.sec.colSum[from] + pf*s.colRateSum[from] + s.compSum - s.comp[from] + r.cF
	for k := range s.active() {
		l := &s.lin[k]
		r.v[k] = l.total + l.cpuSum - l.colSum[from] + pf*l.colRate[from] + l.cpuShift(from, s.comp[from], r.cF)
	}
	return r
}

// rowBound bounds every shuffle move out of r.from at once. Moving mass
// to a DC only grows its column and compute term, so a candidate's
// network max is at least r's, its compute max at least the least term
// a destination reaches (compLow plus step times rateLow), each slot at
// least r's plus step times the cheapest rate (prep's low2), and LoadSum
// r's plus step times the destination's ranked key (loadAt). The bound
// carries LoadSum and the margin at the largest key, the widest margin
// any rank needs: one margin a row keeps rejection monotone in the rank
// for every monotone scorer. Approximate like screen.
func (s *search) rowBound(r *shuffleRow, step float64) (Aggregates, float64) {
	tNet := s.topCol.maxExcluding(s.colMaxT, r.from, -1, r.netF)
	grow := s.compLow.minExcluding(r.from) + step*s.rateLow.minExcluding(r.from)
	tComp := s.topComp.maxExcluding(s.comp, r.from, -1, max(r.cF, grow))
	var v [2]float64
	for k := range s.active() {
		v[k] = clamp0(r.v[k] + step*s.lin[k].inc.minExcluding(r.from))
	}
	return s.bounded(tNet+tComp, s.loadAt(r, step, s.n-1), v)
}

// loadAt is the row bound's LoadSum for a destination ranked k or later.
func (s *search) loadAt(r *shuffleRow, step float64, k int) float64 {
	return clamp0(r.load + step*s.ranked[k].key)
}

// cutoff returns the first rank from which the row bound turns every
// move out of r.from away against bestV (n: none): descend skips each
// to ranked there or later, and the whole row at 0. A binary search,
// which the row's one margin makes sound. It probes the two ends first:
// most rows are turned away whole or not cut at all, and a scorer that
// ignores LoadSum is one of the two.
func (s *search) cutoff(r *shuffleRow, step, bestV float64, sc Scorer) int {
	a, margin := s.rowBound(r, step)
	turnsAway := func(k int) bool {
		a.LoadSum = s.loadAt(r, step, k)
		return sc.Score(a)-margin >= bestV-1e-9
	}
	if !turnsAway(s.n - 1) {
		return s.n
	}
	if turnsAway(0) {
		return 0
	}
	return 1 + sort.Search(s.n-2, func(k int) bool { return turnsAway(k + 1) })
}

// screen bounds the shuffle move (r.from→to) from below in O(1) flops,
// with no divisions and no loop over the DCs, by adding to's terms to
// its row's; descend rejects the move when even the bound minus the
// margin does not improve. The candidate's two fresh columns' sums and
// maxes are the base column rates scaled by pf/pt (exact up to ulps);
// the untouched columns' and DCs' maxes come from the top-3 rankings
// (exact: a max has no summation order); their sums are the totals
// minus the two changed terms (which cancels, hence the absolute margin
// term). The margin is orders of magnitude wider than the float noise,
// so a true improvement falls through to the exact evaluation: the
// bound understates every aggregate by at most the margin, which is
// why only ScreenSafe (monotone) scorers reach this path.
func (s *search) screen(r *shuffleRow, to int, pt float64) (Aggregates, float64) {
	cT := pt * s.compRate[to]
	tNet := s.topCol.maxExcluding(s.colMaxT, r.from, to, max(r.netF, pt*s.colRateMax[to]))
	tComp := s.topComp.maxExcluding(s.comp, r.from, to, max(r.cF, cT))
	load := clamp0(r.load - s.sec.colSum[to] + pt*s.colRateSum[to] - s.comp[to] + cT)
	var v [2]float64
	for k := range s.active() {
		l := &s.lin[k]
		v[k] = clamp0(r.v[k] - l.colSum[to] + pt*l.colRate[to] + l.cpuShift(to, s.comp[to], cT))
	}
	return s.bounded(tNet+tComp, load, v)
}

// bounded attaches the shuffle screens' margin to a bound. It dominates
// every error source: ulp-level scale factorization, summation order,
// the total-minus-columns cancellation (the absolute term) and the ×1e6
// amplification at Kimchi's latency wall (the 1e-7·secs share, three
// orders wider than 1e6 × the relative secs error).
func (s *search) bounded(secs, load float64, v [2]float64) (Aggregates, float64) {
	margin := 1e-7*(secs+load+v[0]+v[1]) + 1e-12*s.abs
	return Aggregates{Secs: secs, LoadSum: load, USD: v[0], KgCO2: v[1]}, margin
}

// nearMiss brackets the shuffle move (from→to) with no margin: every
// aggregate of lo is at most the exact evaluation's, every one of hi at
// least. It rebuilds the two moved columns over nzRows with fold's
// per-entry expressions. Their maxima are then fold's, the other
// columns' and compute terms' come from the top-3 rankings, and a max
// has no order, so Secs is bit-identical to the exact evaluation's in
// both: a scorer that amplifies seconds (Cost's 1e6 wall) amplifies no
// error. Each sum is the base total with the two columns and compute
// terms swapped in, give or take a rounding allowance. Recursive
// summation of m non-negative terms errs by at most γ_m times their
// sum, and every term here is non-negative (the slots' coefficients
// are prices and emissions). The terms either order touches are the
// base's and the candidate's, the two swapped columns twice, so
// γ·(base total + candidate's) with γ = 4·(rows·n + n + 16)·2⁻⁵³ covers
// both orders' errors. A ScreenSafe scorer is monotone, so the exact
// score lies between Score(lo) and Score(hi): descend turns a move away
// when even Score(lo) does not improve, and takes it unfolded when even
// Score(hi) does. Products are rounded with float64(), like fold's.
func (s *search) nearMiss(from, to int, pf, pt float64) (lo, hi Aggregates) {
	n, cols, ps := s.n, [2]int{from, to}, [2]float64{pf, pt}
	var mx, sum [2]float64 // the fresh columns' max and Σ of seconds
	var v [2][2]float64    // the fresh columns' Σ, per active slot
	for x, j := range cols {
		for _, i := range s.nzRows {
			b := s.layout[i] * ps[x]
			if b <= 0 || i == j {
				continue
			}
			t := b * 8 / s.bwDen[i*n+j]
			sum[x] += t
			mx[x] = max(mx[x], t)
			for k := range s.active() {
				v[x][k] += float64(b / 1e9 * s.lin[k].net[i])
			}
		}
	}
	cF, cT := s.compTerm(pf, from), s.compTerm(pt, to)
	tNet := s.topCol.maxExcluding(s.colMaxT, from, to, max(mx[0], mx[1]))
	tComp := s.topComp.maxExcluding(s.comp, from, to, max(cF, cT))
	gamma := float64(len(s.nzRows)*n+n+16) * 0x1p-51
	load := s.sec.total - s.sec.colSum[from] - s.sec.colSum[to] + sum[0] + sum[1] +
		s.compSum - s.comp[from] - s.comp[to] + cF + cT
	var val, err [2]float64 // each active slot's value and allowance
	for k := range s.active() {
		l := &s.lin[k]
		val[k] = l.total - l.colSum[from] - l.colSum[to] + v[0][k] + v[1][k] + l.cpuSum
		if len(l.cpu) > 0 {
			val[k] += float64(cF*l.cpu[from]) - float64(s.comp[from]*l.cpu[from]) +
				float64(cT*l.cpu[to]) - float64(s.comp[to]*l.cpu[to])
		}
		err[k] = float64(gamma * (l.total + l.cpuSum + val[k]))
	}
	errLoad := float64(gamma * (s.sec.total + s.compSum + load))
	secs := tNet + tComp
	lo = Aggregates{Secs: secs, LoadSum: load - errLoad, USD: val[0] - err[0], KgCO2: val[1] - err[1]}
	hi = Aggregates{Secs: secs, LoadSum: load + errLoad, USD: val[0] + err[0], KgCO2: val[1] + err[1]}
	return lo, hi
}

// mapMove holds a map candidate's entrywise scale factors against the
// base: k for the block untouched by the move, and the moved DCs' own
// rows (rs*) and columns (cs*). The corners scale by two ratios at once,
// so the candidate's own volumes from→to and to→from (ft, tf) stand in
// for them.
type mapMove struct {
	from, to              int
	k, rsF, rsT, csF, csT float64
	ft, tf                float64
}

// load is the map screen's network share of LoadSum: the unchanged
// block scaled by k, the moved rows and columns away from the corners
// scaled by their ratios, and the candidate's corners. The base's
// corners come from its split; the diagonal ones are 0.
func (m *mapMove) load(s *search) float64 {
	f, t, row, col := m.from, m.to, s.mapRow, s.mapCol
	ft, tf := s.netSecs(f, t, s.baseMig(f, t)), s.netSecs(t, f, s.baseMig(t, f))
	block := clamp0(s.sec.total - row[f] - row[t] - col[f] - col[t] + (ft + tf))
	return m.k*block +
		m.rsF*clamp0(row[f]-ft) +
		m.rsT*clamp0(row[t]-tf) +
		m.csF*clamp0(col[f]-tf) +
		m.csT*clamp0(col[t]-ft) +
		s.netSecs(f, t, m.ft) + s.netSecs(t, f, m.tf)
}

// baseMig is the base split's migration volume i→j, MigrationMatrix's
// entry: 0 unless i is a surplus and j a deficit DC.
func (s *search) baseMig(i, j int) float64 {
	if s.mapSur[i] > 0 && s.mapDef[j] > 0 {
		return s.mapSur[i] * s.drB[j]
	}
	return 0
}

// mapScreen is the map-stage counterpart of screen: entries of the
// candidate whose source and destination DCs are untouched by the move
// are the base entries scaled by totalDeficit/totalDeficit', so the
// unchanged block's sums and max bound the candidate's seconds from
// below in O(1). The moved DCs' own rows and columns scale entrywise
// too: for j∉{from,to}, cand[from][j] = base[from][j]·(sur'/sur)·k,
// and likewise columns by deficit ratios — so their sums and maxes join
// the bound scaled, instead of being dropped. The two corners are the
// candidate's own entries, surF·defT/totalDeficit' and its mirror,
// priced from the split: from a base that migrates nothing (the
// locality start) they are the move's whole migration. A linear slot
// needs no scaling: every surplus leaves whole, so its value is the
// base's with from's and to's surpluses swapped for the candidate's.
// The compute side is screen's. Approximate, margin-guarded,
// rejection-only; an infinite margin never rejects.
func (s *search) mapScreen(from, to int, pf, pt float64) (Aggregates, float64) {
	surF, defF := s.splitSD(from, pf)
	surT, defT := s.splitSD(to, pt)
	totalDefC := s.mapTotalDef - s.mapDef[from] - s.mapDef[to] + defF + defT
	m := mapMove{from: from, to: to}
	if totalDefC > 0 {
		if totalDefC < 1e-6*s.mapTotalDef {
			// Near-total cancellation: the delta-computed denominator is
			// too noisy to bound the scale factor — never skip here.
			// (A non-positive totalDefC is different: the candidate
			// moves nothing, so a bound of 0 under-counts and stays a
			// valid lower bound.)
			return Aggregates{}, math.Inf(1)
		}
		m.ft, m.tf = surF*(defT/totalDefC), surT*(defF/totalDefC)
	}
	if totalDefC > 0 && s.mapTotalDef > 0 {
		m.k = s.mapTotalDef / totalDefC
		ratio := func(num, den float64) float64 {
			if den > 0 {
				return num / den * m.k
			}
			return 0
		}
		m.rsF, m.rsT = ratio(surF, s.mapSur[from]), ratio(surT, s.mapSur[to])
		m.csF, m.csT = ratio(defF, s.mapDef[from]), ratio(defT, s.mapDef[to])
	}
	tNet := 0.0
	for _, e := range &s.mapTop {
		if e.i != from && e.i != to && e.j != from && e.j != to {
			tNet = m.k * e.v
			break
		}
	}
	// The candidate's corners, then the moved rows' and columns'
	// largest entries away from them.
	tNet = max(tNet, s.netSecs(from, to, m.ft), s.netSecs(to, from, m.tf))
	scale := [4]float64{m.rsF, m.rsT, m.csF, m.csT}
	for x, two := range [4]*[2]mapEntry{&s.mapRow2[from], &s.mapRow2[to], &s.mapCol2[from], &s.mapCol2[to]} {
		for _, e := range two {
			other := e.j
			if x >= 2 {
				other = e.i
			}
			if e.i >= 0 && other != from && other != to {
				tNet = max(tNet, scale[x]*e.v)
				break
			}
		}
	}
	cF, cT := pf*s.compRate[from], pt*s.compRate[to]
	tComp := s.topComp.maxExcluding(s.comp, from, to, max(cF, cT))
	compLoad := clamp0(s.compSum - s.comp[from] - s.comp[to] + cF + cT)
	var v [2]float64
	for k := range s.active() {
		l := &s.lin[k]
		if totalDefC > 0 {
			v[k] = clamp0(l.total-l.mig(from, s.mapSur[from])-l.mig(to, s.mapSur[to])) + l.mig(from, surF) + l.mig(to, surT)
		}
		v[k] += clamp0(l.cpuSum + l.cpuShift(from, s.comp[from], cF) + l.cpuShift(to, s.comp[to], cT))
	}
	secs, load := tNet+tComp, m.load(s)+compLoad
	// compSum sits in the absolute term (beside compLoad) because the
	// total-minus-two compute folds above cancel.
	margin := 1e-7*(secs+load+v[0]+v[1]) + 1e-12*(s.abs+compLoad)
	return Aggregates{Secs: secs, LoadSum: load, USD: v[0], KgCO2: v[1]}, margin
}

// mapRowScreen bounds at once every map move out of from whose to is
// not a base surplus DC (descend screens those few one by one), with
// terms that hold whatever such a to is. It holds no migration row, and
// the move only grows its deficit — by step·total — and its compute
// term, so the candidate's total deficit lies in [tdLo, tdLo+step·total]
// and every entry off from's row and column scales by at least kLo. From
// is a surplus that leaves whole whatever its destinations: surF·net/1e9
// in a slot and at least surF·secMin[from] seconds, of which the corner
// from→to carries at least to's share of the total deficit; its base
// entries scale by surF/sur[from]·kLo. To's compute term is at least the
// smallest one's plus step times the smallest rate. Approximate like
// mapScreen, and rejection-only under its margin.
func (s *search) mapRowScreen(from int, pf, step float64) (Aggregates, float64) {
	surF, defF := s.splitSD(from, pf)
	tdLo := s.mapTotalDef - s.mapDef[from] + defF
	cF, grow := pf*s.compRate[from], step*s.rateLow.minExcluding(from)
	tComp := s.topComp.maxExcluding(s.comp, from, -1, max(cF, s.compLow.minExcluding(from)+grow))
	load := clamp0(s.compSum-s.comp[from]+cF) + grow
	var v [2]float64
	for k := range s.active() {
		l := &s.lin[k]
		v[k] = clamp0(l.cpuSum + l.cpuShift(from, s.comp[from], cF))
	}
	tNet := 0.0
	// Surpluses and deficits balance to within rounding, so a surplus far
	// above it, or deficits left at from and elsewhere that survive the
	// cancellation, give every candidate a positive total deficit: only
	// then does each surplus leave whole.
	if surF > 1e-9*s.total || (tdLo > 0 && tdLo >= 1e-6*s.mapTotalDef) {
		tdHi := tdLo + step*s.total
		kLo := s.mapTotalDef / tdHi
		for _, e := range &s.mapTop {
			if e.i >= 0 && e.i != from && e.j != from {
				tNet = kLo * e.v
				break
			}
		}
		if s.mapSur[from] > 0 {
			tNet = max(tNet, surF/s.mapSur[from]*kLo*s.mapRow2[from][0].v)
		}
		tNet = max(tNet, surF*(step*s.total/tdHi)*s.secMin[from])
		load += surF*s.secMin[from] + kLo*clamp0(s.sec.total-s.mapRow[from]-s.mapCol[from])
		for k := range s.active() {
			l := &s.lin[k]
			v[k] += clamp0(l.total-l.mig(from, s.mapSur[from])) + l.mig(from, surF)
		}
	}
	secs := tNet + tComp
	margin := 1e-7*(secs+load+v[0]+v[1]) + 1e-12*s.abs
	return Aggregates{Secs: secs, LoadSum: load, USD: v[0], KgCO2: v[1]}, margin
}

// normalizeInto is Placement.Normalize writing into an owned buffer —
// the same float operations, without the copy allocation.
func normalizeInto(dst, src spark.Placement) {
	total := 0.0
	for _, v := range src {
		if v > 0 {
			total += v
		}
	}
	for i, v := range src {
		switch {
		case total <= 0:
			dst[i] = 1 / float64(len(src))
		case v > 0:
			dst[i] = v / total
		default:
			dst[i] = 0
		}
	}
}

// descend runs the greedy shrinking-step descent from start under the
// scorer's objective, leaving the final placement in s.p (with its
// estimate aggregates in s.agg) and returning the final objective
// value. Moves, acceptance rule (strict 1e-9 improvement against the
// best-so-far) and step schedule replicate descendReference exactly.
// Only ScreenSafe scorers get the rejection screens; the rest pay the
// exact canonical evaluation for every candidate — slower, never wrong.
// On shuffle stages the screens also defer folds: a move nearMiss
// proves better than the sweep's best so far becomes the new best
// unfolded, and is folded only if it wins the sweep or a later move
// comes too close to it to tell.
func (s *search) descend(start spark.Placement, sc Scorer) float64 {
	s.activate(sc)
	useScreens := sc.ScreenSafe()
	normalizeInto(s.p, start)
	s.agg = s.fold(s.fillBase())
	best := sc.Score(s.agg)
	for step := 0.10; step >= 0.005; step /= 2 {
		for {
			// The sweep's best so far scores bestV. While it is unfolded,
			// bestV is the upper end of its nearMiss bracket and bestLo
			// the lower; otherwise both are its exact score. Every screen
			// reads bestV, which is never below the exact score, so it
			// turns away only moves the exact comparison would.
			bestV, bestFrom, bestTo := best, -1, -1
			bestLo, unfolded := best, false
			var bestAgg Aggregates
			for from := 0; from < s.n; from++ {
				if s.p[from] < step {
					continue
				}
				pf := s.p[from] - step
				var row shuffleRow
				tos, cut := s.all, s.n // every to ranked at or past cut is turned away
				if useScreens {
					if !s.isMap {
						row = s.row(from, pf)
						if cut = s.cutoff(&row, step, bestV, sc); cut == 0 {
							continue
						}
					} else if a, margin := s.mapRowScreen(from, pf, step); sc.Score(a)-margin >= bestV-1e-9 {
						tos = s.surIdx // the moves the map row bound leaves out
					}
				}
				// Index order, not rank order: acceptance is strict by
				// 1e-9, so which of near-tied candidates wins depends on
				// the order they are met in.
				for _, to := range tos {
					if to == from || s.rank[to] >= cut {
						continue
					}
					pt := s.p[to] + step
					var a Aggregates
					if useScreens {
						s.screened++
						var margin float64
						if s.isMap {
							a, margin = s.mapScreen(from, to, pf, pt)
						} else {
							a, margin = s.screen(&row, to, pt)
						}
						if sc.Score(a)-margin >= bestV-1e-9 {
							continue
						}
						if !s.isMap {
							lo, hi := s.nearMiss(from, to, pf, pt)
							vLo := sc.Score(lo)
							if vLo >= bestV-1e-9 {
								continue
							}
							if vHi := sc.Score(hi); vHi < bestLo-1e-9 {
								bestV, bestLo, bestFrom, bestTo, unfolded = vHi, vLo, from, to, true
								continue
							}
							if unfolded { // too close to tell: compare exactly
								bestAgg, bestV = s.foldMove(sc, bestFrom, bestTo, step)
								bestLo, unfolded = bestV, false
							}
						}
					}
					s.exact++
					if s.isMap {
						a = s.evalMapCand(from, to, pf, pt)
					} else {
						a = s.evalShuffleCand(from, to, pf, pt)
					}
					if v := sc.Score(a); v < bestV-1e-9 {
						bestV, bestLo, bestFrom, bestTo, bestAgg = v, v, from, to, a
					}
				}
			}
			if unfolded {
				bestAgg, bestV = s.foldMove(sc, bestFrom, bestTo, step)
			}
			if bestFrom < 0 {
				break
			}
			s.applyMove(bestFrom, bestTo, step)
			best = bestV
			s.agg = bestAgg
		}
	}
	return best
}

// foldMove evaluates and scores the shuffle move from→to at step
// exactly: descend's deferred fold of a sweep's best.
func (s *search) foldMove(sc Scorer, from, to int, step float64) (Aggregates, float64) {
	s.exact++
	a := s.evalShuffleCand(from, to, s.p[from]-step, s.p[to]+step)
	return a, sc.Score(a)
}

// placeMultiStart runs the three-start descent under any Scorer and
// returns the winning placement in s.bestBuf along with its estimate
// aggregates. Kimchi reads the JCT phase's seconds for its latency
// budget directly instead of re-estimating the placement the descent
// just scored, and both of its phases share this one context. A start
// bit-identical to an earlier one (compute-proportional is uniform at
// one rate everywhere) is not descended again: descend is a pure function
// of start and lease, so a repeat could only tie, and `v < bestV` is strict.
func (s *search) placeMultiStart(sc Scorer) (best spark.Placement, agg Aggregates) {
	normalizeInto(s.starts[0], s.layout) // data locality
	for i := range s.starts[1] {
		s.starts[1][i] = 1 / float64(s.n) // uniform
	}
	normalizeInto(s.starts[2], s.est.info.ComputeRates) // compute-proportional
	bestV := 0.0
	for i, start := range s.starts {
		if repeatsStart(start, s.starts[:i]...) {
			continue
		}
		if v := s.descend(start, sc); i == 0 || v < bestV {
			bestV = v
			copy(s.bestBuf, s.p)
			agg = s.agg
		}
	}
	return s.bestBuf, agg
}

// repeatsStart reports whether start equals one of earlier bit for bit
// (math.Float64bits, so ±0 and NaN cannot alias).
func repeatsStart(start spark.Placement, earlier ...spark.Placement) bool {
	for _, e := range earlier {
		if slices.EqualFunc(start, e, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return true
		}
	}
	return false
}

// descendGeneric is the allocation-light descent for objectives without
// estimator structure (Iridium's per-site model): identical moves and
// acceptance to descendReference, with one reused candidate buffer
// instead of a fresh slice per evaluation.
func descendGeneric(n int, start spark.Placement, objective func(spark.Placement) float64) spark.Placement {
	p := start.Normalize()
	cand := make(spark.Placement, n)
	best := objective(p)
	for step := 0.10; step >= 0.005; step /= 2 {
		for {
			bestV, bestFrom, bestTo := best, -1, -1
			for from := 0; from < n; from++ {
				if p[from] < step {
					continue
				}
				for to := 0; to < n; to++ {
					if to == from {
						continue
					}
					copy(cand, p)
					cand[from] -= step
					cand[to] += step
					if v := objective(cand); v < bestV-1e-9 {
						bestV, bestFrom, bestTo = v, from, to
					}
				}
			}
			if bestFrom < 0 {
				break
			}
			p[bestFrom] -= step
			p[bestTo] += step
			best = bestV
		}
	}
	return p
}
