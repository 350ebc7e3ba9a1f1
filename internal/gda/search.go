package gda

import (
	"sync"

	"github.com/wanify/wanify/internal/spark"
)

// search is the reusable context behind the estimator-based scheduler
// descents (every Scorer-composed scheduler: Tetrium, Kimchi, the
// cost/carbon/blend Scheds). The reference search re-allocates a
// candidate Placement and rebuilds the full O(n²) Shuffle/Migration
// matrix for every single-move candidate at every step level; the
// context instead keeps per-entry caches of the base placement's
// estimate and delta-evaluates each (from,to) move:
//
//   - Shuffle stages: moving mass from DC `from` to DC `to` changes
//     only columns `from` and `to` of the transfer matrix
//     (ShuffleMatrix[i][j] = layout[i]·p[j]) and the two compute
//     terms, so a candidate recomputes O(n) expensive entries (the
//     divisions by believed bandwidth) against the cached rest.
//   - Map stages: migration volumes couple every entry through the
//     total deficit, so candidates rebuild the matrix — but into
//     scratch, with zero allocations.
//
// Bit-exactness contract (locked by TestPlaceMatchesReference and the
// experiment goldens): every cached or delta-computed term is produced
// by exactly the float expressions estimateDetail evaluates, and the
// secs/loadSum/usd aggregates are reduced over the entries in
// estimateDetail's canonical row-major order. Zero-valued skipped
// entries may be added where the reference skips them — x + (+0.0) is
// an identity on the non-negative partial sums involved — but sums are
// never delta-updated, because floating-point addition does not
// associate; the cheap re-reduction is the price of returning the
// identical bits. Base caches refresh once per accepted move, in O(n)
// for shuffle stages.
//
// Sparsity: fleet-shaped problems place a job's data on a handful of
// DCs out of hundreds, so the transfer matrices are mostly zero rows
// (a shuffle row i is layout[i]·p[j]; a migration row is nonzero only
// for surplus DCs, and surplus requires layout > 0). The shuffle hot
// paths therefore iterate nzRows — the source DCs with layout[i] > 0 —
// instead of all n rows: skipped entries are exact +0.0 contributions,
// so sums, maxes and cached columns are bit-identical to the dense
// sweep, while candidate evaluation drops from O(n²) to O(nz·n).
// Zero-layout rows of the tE/uE slabs are never written or read by the
// shuffle paths (map-stage fillBase rewrites every row before map
// screening reads arbitrary corners).
//
// Contexts are pooled (schedulers are stateless values called from
// concurrent experiment drivers) and reach zero steady-state
// allocations after the first Place at a given cluster size.
type search struct {
	n      int
	est    estimator
	stage  spark.Stage
	layout []float64
	total  float64 // sum(layout), accumulated in estimateDetail's order
	nzRows []int   // source DCs with layout[i] > 0, ascending

	bwDen []float64 // n×n flattened: floored believed BW × 1e6 (denominators)
	rate  []float64 // per-DC compute rate with estimateDetail's 1e-6 floor

	p spark.Placement // current placement (owned buffer)

	transfer [][]float64 // n×n transfer-bytes scratch
	mscr     spark.MatrixScratch

	tE   []float64 // n×n per-entry network seconds for p (0 on diag / b<=0)
	uE   []float64 // n×n per-entry egress dollars for p
	comp []float64 // per-DC compute seconds for p

	agg Aggregates // estimateAgg(p) aggregates (KgCO2 only when needC)

	// Shuffle-candidate scratch: replacement columns `from` and `to`.
	tF, tT, uF, uT []float64

	// Carbon machinery, maintained only while the active scorer's
	// NeedsCarbon — the aggregate is column-linear for shuffle stages
	// and deficit-scalable for map stages exactly like usd, so it rides
	// the same delta and screen structure. When needC is false every
	// carbon aggregate is exactly 0 and the screens' added carbon terms
	// are exact +0.0 identities, keeping the non-carbon path
	// bit-identical to the pre-scorer search.
	needC       bool
	carbonReady bool      // per-lease: coefficient slabs filled
	netC        []float64 // per-DC kgCO₂ per GB sent (ClusterInfo.CarbonPerGB)
	compC       []float64 // per-DC kgCO₂ per compute-second
	cE          []float64 // n×n per-entry network kgCO₂ for p
	cbF, cbT    []float64 // shuffle-candidate carbon columns
	colRateCSum []float64 // Σ_{i≠j} layout[i]/1e9·netC[i]
	colSumC     []float64 // Σ_i cE[i][j]
	totalC      float64   // Σ colSumC
	compCarbSum float64   // Σ comp[j]·compC[j]
	mapRowC     []float64 // per-row Σ cE (map stages)
	mapColC     []float64 // per-column Σ cE (map stages)
	mapTotC     float64

	// Map-stage state: the base placement's surplus/deficit split
	// (maintained like the shuffle column caches — two entries per
	// accepted move) and the per-DC deficit-ratio scratch.
	mapSur, mapDef, drB []float64

	// Map-stage screening aggregates over the base entry caches. A
	// migration entry is surplus_i·(deficit_j/totalDeficit)·8/den, so
	// every entry whose DCs are untouched by a move scales by the one
	// factor totalDeficit/totalDeficit' — the unchanged block's sums and
	// max scale with it, giving an O(1) rejection bound (approximate,
	// margin-guarded, exactly like the shuffle screen).
	mapRowT, mapColT []float64 // per-row / per-column Σ tE
	mapRowU, mapColU []float64 // per-row / per-column Σ uE
	mapTotT, mapTotU float64
	mapTotalDef      float64
	mapTop           [6]mapEntry   // largest base entries, for the block max
	mapRow2, mapCol2 [][2]mapEntry // per-row / per-column two largest entries

	// Screening aggregates (the column ones for shuffle stages only, the
	// compute ones — compRate, compSum, compCarbSum, topComp — for map
	// stages too). The scan over the n² single-move candidates is
	// dominated by provably non-improving moves; the screen rejects most
	// of them in O(1) flops without divisions. Everything here is
	// APPROXIMATE and used strictly for rejection behind a wide error
	// margin — any candidate that might improve still gets the exact
	// canonical evaluation, so the bit-exact contract is untouched.
	//
	// Placement-independent column rates (a shuffle column j's entries
	// are layout[i]·p[j]·8/den, so sums and maxes scale linearly with
	// p[j] to within ulps):
	colRateSum []float64 // Σ_{i≠j} layout[i]·8/den[i][j]
	colRateMax []float64 // max_{i≠j} layout[i]·8/den[i][j]
	colUsdSum  []float64 // Σ_{i≠j} layout[i]/1e9·egress[i]
	compRate   []float64 // total/1e9·SecPerGB/rate[j]
	// Placement-dependent column aggregates of the cached base entries,
	// refreshed with the O(n) column updates of applyMove:
	colSumT []float64 // Σ_i tE[i][j]
	colMaxT []float64 // max_i tE[i][j]
	colSumU []float64 // Σ_i uE[i][j]
	totalT  float64   // Σ colSumT
	totalU  float64   // Σ colSumU
	compSum float64   // Σ comp
	// A candidate leaves every column and compute term but from's and
	// to's alone, so the max over the untouched ones is the first of the
	// three largest that is neither — refreshed with the totals, once per
	// accepted move, instead of rescanned per candidate.
	topCol  top3 // over colMaxT
	topComp top3 // over comp

	starts  [3]spark.Placement // descent start buffers
	bestBuf spark.Placement    // winning placement across starts
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
// blackout floor folded in) and the floored compute rates.
func (s *search) init(est estimator, stage spark.Stage, layout []float64) {
	n := est.info.N()
	if s.n != n {
		s.n = n
		s.bwDen = make([]float64, n*n)
		s.rate = make([]float64, n)
		s.p = make(spark.Placement, n)
		s.tE = make([]float64, n*n)
		s.uE = make([]float64, n*n)
		s.comp = make([]float64, n)
		s.tF = make([]float64, n)
		s.tT = make([]float64, n)
		s.uF = make([]float64, n)
		s.uT = make([]float64, n)
		for i := range s.starts {
			s.starts[i] = make(spark.Placement, n)
		}
		s.bestBuf = make(spark.Placement, n)
		s.colRateSum = make([]float64, n)
		s.colRateMax = make([]float64, n)
		s.colUsdSum = make([]float64, n)
		s.compRate = make([]float64, n)
		s.colSumT = make([]float64, n)
		s.colMaxT = make([]float64, n)
		s.colSumU = make([]float64, n)
		s.mapSur = make([]float64, n)
		s.mapDef = make([]float64, n)
		s.drB = make([]float64, n)
		s.mapRowT = make([]float64, n)
		s.mapColT = make([]float64, n)
		s.mapRowU = make([]float64, n)
		s.mapColU = make([]float64, n)
		s.mapRow2 = make([][2]mapEntry, n)
		s.mapCol2 = make([][2]mapEntry, n)
		s.cE = nil // carbon slabs: prepCarbon sizes them on first need
		s.transfer = nil
	}
	s.est, s.stage, s.layout = est, stage, layout
	s.needC, s.carbonReady = false, false
	total := 0.0
	s.nzRows = s.nzRows[:0]
	for i, b := range layout {
		total += b
		if b > 0 {
			s.nzRows = append(s.nzRows, i)
		}
	}
	s.total = total
	// Denominators are only ever divided into with a positive numerator,
	// which requires layout[i] > 0 (shuffle entries are layout[i]·p[j],
	// migration entries need surplus, surplus needs layout); zero rows
	// are left stale and unread.
	for _, i := range s.nzRows {
		row := est.believed[i]
		base := i * n
		for j := 0; j < n; j++ {
			bw := row[j]
			if bw < 1 {
				bw = 1
			}
			s.bwDen[base+j] = bw * 1e6
		}
	}
	for j := 0; j < n; j++ {
		r := est.info.ComputeRates[j]
		if r <= 0 {
			r = 1e-6
		}
		s.rate[j] = r
	}
	for j := 0; j < n; j++ {
		sum, max, usum := 0.0, 0.0, 0.0
		for _, i := range s.nzRows {
			if i == j {
				continue
			}
			r := layout[i] * 8 / s.bwDen[i*n+j]
			sum += r
			if r > max {
				max = r
			}
			usum += layout[i] / 1e9 * est.info.EgressPerGB[i]
		}
		s.colRateSum[j] = sum
		s.colRateMax[j] = max
		s.colUsdSum[j] = usum
		s.compRate[j] = total / 1e9 / s.rate[j] * stage.SecPerGB
	}
}

// entryTerms computes one transfer entry's network time and egress
// dollars — the exact per-entry expressions of estimateDetail.
func (s *search) entryTerms(i, j int, b float64) (t, u float64) {
	if i == j || b <= 0 {
		return 0, 0
	}
	return b * 8 / s.bwDen[i*s.n+j], b / 1e9 * s.est.info.EgressPerGB[i]
}

// entryCarbon is the carbon counterpart of entryTerms — estimateAgg's
// exact per-entry transport expression. Only called while needC.
func (s *search) entryCarbon(i, j int, b float64) float64 {
	if i == j || b <= 0 {
		return 0
	}
	return b / 1e9 * s.netC[i]
}

// prepCarbon sizes (once per context size) and fills the carbon
// coefficient slabs and their placement-independent screen rates, once
// per lease and only when a carbon-pricing scorer actually descends on
// this context — the others never pay for the n×n cE.
func (s *search) prepCarbon() {
	info := s.est.info
	if n := s.n; len(s.cE) != n*n {
		s.cE = make([]float64, n*n)
		s.netC = make([]float64, n)
		s.compC = make([]float64, n)
		s.cbF = make([]float64, n)
		s.cbT = make([]float64, n)
		s.colRateCSum = make([]float64, n)
		s.colSumC = make([]float64, n)
		s.mapRowC = make([]float64, n)
		s.mapColC = make([]float64, n)
	}
	for i := 0; i < s.n; i++ {
		s.netC[i] = carbonAt(info.CarbonPerGB, i)
		s.compC[i] = carbonAt(info.CarbonPerCompSec, i)
	}
	for j := 0; j < s.n; j++ {
		csum := 0.0
		for _, i := range s.nzRows {
			if i == j {
				continue
			}
			csum += s.layout[i] / 1e9 * s.netC[i]
		}
		s.colRateCSum[j] = csum
	}
	s.carbonReady = true
}

// splitSD is MigrationMatrix's surplus/deficit split for DC x holding
// task share px — the builder's exact expressions.
func (s *search) splitSD(x int, px float64) (sur, def float64) {
	want := s.total * px
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

// fillBase populates the per-entry caches and aggregates for the
// current placement s.p — one full estimate, shared by every candidate
// of the following sweep.
func (s *search) fillBase() {
	n := s.n
	if s.stage.Kind == spark.MapKind {
		// Migration entries couple through the total deficit; build the
		// full matrix and rewrite every tE/uE row (zero rows included —
		// mapScreen reads arbitrary corner entries, so no row may be
		// left stale here).
		s.transfer = spark.MigrationMatrixInto(s.transfer, s.layout, s.p, &s.mscr)
		for i := 0; i < n; i++ {
			row := s.transfer[i]
			base := i * n
			for j := 0; j < n; j++ {
				s.tE[base+j], s.uE[base+j] = s.entryTerms(i, j, row[j])
			}
		}
		if s.needC {
			for i := 0; i < n; i++ {
				row := s.transfer[i]
				base := i * n
				for j := 0; j < n; j++ {
					s.cE[base+j] = s.entryCarbon(i, j, row[j])
				}
			}
		}
	} else {
		// A shuffle entry is layout[i]·p[j] — ShuffleMatrixInto's exact
		// expression, computed inline so zero rows need no matrix build
		// and the nonzero rows need no n² intermediate.
		for _, i := range s.nzRows {
			base := i * n
			for j := 0; j < n; j++ {
				s.tE[base+j], s.uE[base+j] = s.entryTerms(i, j, s.layout[i]*s.p[j])
			}
		}
		if s.needC {
			for _, i := range s.nzRows {
				base := i * n
				for j := 0; j < n; j++ {
					s.cE[base+j] = s.entryCarbon(i, j, s.layout[i]*s.p[j])
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		s.comp[j] = s.compTerm(s.p[j], j)
	}
	s.agg = s.reduceBase()
	if s.stage.Kind == spark.MapKind {
		s.mapTotalDef = 0
		for i := 0; i < n; i++ {
			s.mapSur[i], s.mapDef[i] = s.splitSD(i, s.p[i])
			s.mapTotalDef += s.mapDef[i]
		}
		s.mapTotT, s.mapTotU = 0, 0
		for k := range s.mapTop {
			s.mapTop[k] = mapEntry{i: -1, j: -1}
		}
		for i := 0; i < n; i++ {
			rowT, rowU := 0.0, 0.0
			base := i * n
			s.mapRow2[i] = [2]mapEntry{{i: -1, j: -1}, {i: -1, j: -1}}
			for j := 0; j < n; j++ {
				t := s.tE[base+j]
				rowT += t
				rowU += s.uE[base+j]
				if t > s.mapTop[len(s.mapTop)-1].v {
					// Insertion into the small descending top list.
					k := len(s.mapTop) - 1
					for k > 0 && t > s.mapTop[k-1].v {
						s.mapTop[k] = s.mapTop[k-1]
						k--
					}
					s.mapTop[k] = mapEntry{v: t, i: i, j: j}
				}
				if t > s.mapRow2[i][0].v {
					s.mapRow2[i][1] = s.mapRow2[i][0]
					s.mapRow2[i][0] = mapEntry{v: t, i: i, j: j}
				} else if t > s.mapRow2[i][1].v {
					s.mapRow2[i][1] = mapEntry{v: t, i: i, j: j}
				}
			}
			s.mapRowT[i], s.mapRowU[i] = rowT, rowU
			s.mapTotT += rowT
			s.mapTotU += rowU
		}
		for j := 0; j < n; j++ {
			colT, colU := 0.0, 0.0
			s.mapCol2[j] = [2]mapEntry{{i: -1, j: -1}, {i: -1, j: -1}}
			for i := 0; i < n; i++ {
				t := s.tE[i*n+j]
				colT += t
				colU += s.uE[i*n+j]
				if t > s.mapCol2[j][0].v {
					s.mapCol2[j][1] = s.mapCol2[j][0]
					s.mapCol2[j][0] = mapEntry{v: t, i: i, j: j}
				} else if t > s.mapCol2[j][1].v {
					s.mapCol2[j][1] = mapEntry{v: t, i: i, j: j}
				}
			}
			s.mapColT[j], s.mapColU[j] = colT, colU
		}
		if s.needC {
			s.mapTotC = 0
			for i := 0; i < n; i++ {
				rowC := 0.0
				base := i * n
				for j := 0; j < n; j++ {
					rowC += s.cE[base+j]
				}
				s.mapRowC[i] = rowC
				s.mapTotC += rowC
			}
			for j := 0; j < n; j++ {
				colC := 0.0
				for i := 0; i < n; i++ {
					colC += s.cE[i*n+j]
				}
				s.mapColC[j] = colC
			}
		}
		s.refreshCompTotals()
	} else {
		for j := 0; j < n; j++ {
			s.refreshColumn(j)
		}
		s.refreshTotals()
	}
}

// refreshColumn recomputes the screening aggregates of base column j
// (shuffle stages only, so the zero layout rows — exact zero entries —
// can be skipped).
func (s *search) refreshColumn(j int) {
	sum, max, usum := 0.0, 0.0, 0.0
	for _, i := range s.nzRows {
		t := s.tE[i*s.n+j]
		sum += t
		if t > max {
			max = t
		}
		usum += s.uE[i*s.n+j]
	}
	s.colSumT[j] = sum
	s.colMaxT[j] = max
	s.colSumU[j] = usum
	if s.needC {
		csum := 0.0
		for _, i := range s.nzRows {
			csum += s.cE[i*s.n+j]
		}
		s.colSumC[j] = csum
	}
}

// refreshTotals re-derives the grand screening totals and the column
// ranking from the column aggregates (O(n) per accepted move; avoids
// error drift across them).
func (s *search) refreshTotals() {
	s.totalT, s.totalU = 0, 0
	for j := 0; j < s.n; j++ {
		s.totalT += s.colSumT[j]
		s.totalU += s.colSumU[j]
	}
	if s.needC {
		s.totalC = 0
		for j := 0; j < s.n; j++ {
			s.totalC += s.colSumC[j]
		}
	}
	s.topCol.fill(s.colMaxT)
	s.refreshCompTotals()
}

// refreshCompTotals re-derives the compute-side screening aggregates
// from comp — the part of refreshTotals map stages share.
func (s *search) refreshCompTotals() {
	s.compSum = 0
	for _, c := range s.comp {
		s.compSum += c
	}
	if s.needC {
		s.compCarbSum = 0
		for j, c := range s.comp {
			s.compCarbSum += c * s.compC[j]
		}
	}
	s.topComp.fill(s.comp)
}

// reduceBase folds the cached entries into the estimate Aggregates in
// estimateDetail/estimateAgg's canonical order: network entries
// row-major, then compute terms by DC. The carbon fold is a separate
// pass over the same order — KgCO2 has its own accumulator, so its
// bits only depend on its own addition sequence, and skipped zero
// entries contribute exact +0.0 identities.
func (s *search) reduceBase() Aggregates {
	var a Aggregates
	tNet := 0.0
	for _, i := range s.nzRows {
		base := i * s.n
		for j := 0; j < s.n; j++ {
			t := s.tE[base+j]
			a.LoadSum += t
			if t > tNet {
				tNet = t
			}
			a.USD += s.uE[base+j]
		}
	}
	tComp := 0.0
	for _, c := range s.comp {
		a.LoadSum += c
		if c > tComp {
			tComp = c
		}
	}
	a.Secs = tNet + tComp
	if s.needC {
		for _, i := range s.nzRows {
			base := i * s.n
			for j := 0; j < s.n; j++ {
				a.KgCO2 += s.cE[base+j]
			}
		}
		for j, c := range s.comp {
			a.KgCO2 += c * s.compC[j]
		}
	}
	return a
}

// evalShuffleCand delta-evaluates the move (from→to, pf/pt being the
// two changed placement entries) for a shuffle stage: O(n) fresh
// divisions for the two changed transfer columns, then the canonical
// reduction substituting them over the cached rest. The carbon fold,
// when the scorer needs it, is the same substitution replayed for the
// KgCO2 accumulator in its own canonical-order pass.
func (s *search) evalShuffleCand(from, to int, pf, pt float64) Aggregates {
	n := s.n
	for _, i := range s.nzRows {
		s.tF[i], s.uF[i] = s.entryTerms(i, from, s.layout[i]*pf)
		s.tT[i], s.uT[i] = s.entryTerms(i, to, s.layout[i]*pt)
	}
	cF := s.compTerm(pf, from)
	cT := s.compTerm(pt, to)

	var a Aggregates
	tNet := 0.0
	for _, i := range s.nzRows {
		base := i * n
		for j := 0; j < n; j++ {
			var t, u float64
			switch j {
			case from:
				t, u = s.tF[i], s.uF[i]
			case to:
				t, u = s.tT[i], s.uT[i]
			default:
				t, u = s.tE[base+j], s.uE[base+j]
			}
			a.LoadSum += t
			if t > tNet {
				tNet = t
			}
			a.USD += u
		}
	}
	tComp := 0.0
	for j := 0; j < n; j++ {
		c := s.comp[j]
		switch j {
		case from:
			c = cF
		case to:
			c = cT
		}
		a.LoadSum += c
		if c > tComp {
			tComp = c
		}
	}
	a.Secs = tNet + tComp
	if s.needC {
		for _, i := range s.nzRows {
			s.cbF[i] = s.entryCarbon(i, from, s.layout[i]*pf)
			s.cbT[i] = s.entryCarbon(i, to, s.layout[i]*pt)
		}
		for _, i := range s.nzRows {
			base := i * n
			for j := 0; j < n; j++ {
				switch j {
				case from:
					a.KgCO2 += s.cbF[i]
				case to:
					a.KgCO2 += s.cbT[i]
				default:
					a.KgCO2 += s.cE[base+j]
				}
			}
		}
		for j := 0; j < n; j++ {
			c := s.comp[j]
			switch j {
			case from:
				c = cF
			case to:
				c = cT
			}
			a.KgCO2 += c * s.compC[j]
		}
	}
	return a
}

// evalMapCand evaluates a candidate for a map stage. The migration
// matrix couples every entry through the total deficit, so there is no
// column delta — but the nonzero block is only surplus-DCs × deficit-
// DCs, so the evaluation fuses MigrationMatrix's construction with
// estimateDetail's fold: surplus/deficit are computed with the matrix
// builder's exact expressions, whole zero rows/columns are skipped
// (they contribute nothing in the reference either), the deficit
// ratios are hoisted per destination (the same division the reference
// performs per entry, evaluated once), and the unchanged compute terms
// come from the base cache. The nonzero entries fold in the reference's
// row-major order, so the result bits match a full rebuild.
func (s *search) evalMapCand(from, to int, pf, pt float64) Aggregates {
	n := s.n
	oldF, oldT := s.p[from], s.p[to]
	s.p[from], s.p[to] = pf, pt

	var a Aggregates
	tNet := 0.0
	if s.total > 0 {
		// Surplus/deficit differ from the maintained base split only at
		// the two moved DCs; the total deficit still folds over every DC
		// in index order (surplus DCs contribute an exact 0) so its bits
		// match the builder's fresh accumulation.
		surF, defF := s.splitSD(from, pf)
		surT, defT := s.splitSD(to, pt)
		var totalDeficit float64
		for i := 0; i < n; i++ {
			switch i {
			case from:
				totalDeficit += defF
			case to:
				totalDeficit += defT
			default:
				totalDeficit += s.mapDef[i]
			}
		}
		if totalDeficit > 0 {
			for j := 0; j < n; j++ {
				d := s.mapDef[j]
				switch j {
				case from:
					d = defF
				case to:
					d = defT
				}
				s.drB[j] = d / totalDeficit
			}
			for i := 0; i < n; i++ {
				sur := s.mapSur[i]
				switch i {
				case from:
					sur = surF
				case to:
					sur = surT
				}
				if sur <= 0 {
					continue
				}
				base := i * n
				for j := 0; j < n; j++ {
					if s.drB[j] <= 0 {
						continue
					}
					b := sur * s.drB[j]
					if b <= 0 {
						continue
					}
					t := b * 8 / s.bwDen[base+j]
					a.LoadSum += t
					if t > tNet {
						tNet = t
					}
					a.USD += b / 1e9 * s.est.info.EgressPerGB[i]
					if s.needC {
						a.KgCO2 += b / 1e9 * s.netC[i]
					}
				}
			}
		}
	}
	cF := s.compTerm(pf, from)
	cT := s.compTerm(pt, to)
	tComp := 0.0
	for j := 0; j < n; j++ {
		c := s.comp[j]
		switch j {
		case from:
			c = cF
		case to:
			c = cT
		}
		a.LoadSum += c
		if c > tComp {
			tComp = c
		}
		if s.needC {
			a.KgCO2 += c * s.compC[j]
		}
	}
	s.p[from], s.p[to] = oldF, oldT
	a.Secs = tNet + tComp
	return a
}

// applyMove commits the accepted move into s.p and refreshes the base
// caches: O(n) column/compute updates for shuffle stages (the
// recomputed entries land on exactly the winning candidate's bits),
// nothing for map stages, whose candidates never read the caches.
func (s *search) applyMove(from, to int, step float64) {
	s.p[from] -= step
	s.p[to] += step
	if s.stage.Kind == spark.MapKind {
		// Every migration entry changes through the total deficit, so
		// re-derive the full base (caches + screening aggregates) — the
		// once-per-accepted-move full estimate.
		s.fillBase()
		return
	}
	n := s.n
	pf, pt := s.p[from], s.p[to]
	for _, i := range s.nzRows {
		base := i * n
		s.tE[base+from], s.uE[base+from] = s.entryTerms(i, from, s.layout[i]*pf)
		s.tE[base+to], s.uE[base+to] = s.entryTerms(i, to, s.layout[i]*pt)
	}
	if s.needC {
		for _, i := range s.nzRows {
			base := i * n
			s.cE[base+from] = s.entryCarbon(i, from, s.layout[i]*pf)
			s.cE[base+to] = s.entryCarbon(i, to, s.layout[i]*pt)
		}
	}
	s.comp[from] = s.compTerm(pf, from)
	s.comp[to] = s.compTerm(pt, to)
	s.refreshColumn(from)
	s.refreshColumn(to)
	s.refreshTotals()
}

// screen cheaply decides whether the move (from→to) is provably
// non-improving, in O(1) flops with no divisions and no loop over the
// DCs: column sums and maxes of the candidate's two fresh columns are
// the base column rates scaled by pf/pt (exact up to ulps); the
// untouched columns' max and the untouched DCs' compute max come from
// the top-3 rankings (exact — a max has no summation order); their
// sums are the maintained totals minus the two changed terms (which
// cancels, hence the absolute margin term). The approximation is
// guarded by an error margin orders of magnitude wider than the float
// noise, so a true improvement can never be screened out — it merely
// falls through to the exact canonical evaluation. Rejections are safe
// by construction: the screen's value understates the candidate's true
// objective by at most the margin — which is why only ScreenSafe
// (monotone) scorers reach this path. The carbon terms are exact +0.0
// when the scorer doesn't price carbon, so the non-carbon margin bits
// are unchanged.
func (s *search) screen(from, to int, pf, pt float64, bestV float64, sc Scorer) bool {
	tNet := pf * s.colRateMax[from]
	if v := pt * s.colRateMax[to]; v > tNet {
		tNet = v
	}
	tComp := pf * s.compRate[from]
	if v := pt * s.compRate[to]; v > tComp {
		tComp = v
	}
	tNet = s.topCol.maxExcluding(s.colMaxT, from, to, tNet)
	tComp = s.topComp.maxExcluding(s.comp, from, to, tComp)
	load := s.totalT - s.colSumT[from] - s.colSumT[to] +
		pf*s.colRateSum[from] + pt*s.colRateSum[to] +
		s.compSum - s.comp[from] - s.comp[to] +
		pf*s.compRate[from] + pt*s.compRate[to]
	usd := s.totalU - s.colSumU[from] - s.colSumU[to] +
		pf*s.colUsdSum[from] + pt*s.colUsdSum[to]
	if load < 0 {
		load = 0
	}
	if usd < 0 {
		usd = 0
	}
	co2, cm := 0.0, 0.0
	if s.needC {
		// The carbon aggregate is column-linear exactly like usd, with
		// the per-DC compute carbon scaling by pf/pt through compRate.
		co2 = s.totalC - s.colSumC[from] - s.colSumC[to] +
			pf*s.colRateCSum[from] + pt*s.colRateCSum[to] +
			s.compCarbSum - s.comp[from]*s.compC[from] - s.comp[to]*s.compC[to] +
			pf*s.compRate[from]*s.compC[from] + pt*s.compRate[to]*s.compC[to]
		if co2 < 0 {
			co2 = 0
		}
		cm = s.totalC + s.compCarbSum
	}
	secs := tNet + tComp
	v := sc.Score(Aggregates{Secs: secs, LoadSum: load, USD: usd, KgCO2: co2})
	// The margin dominates every error source: ulp-level scale
	// factorization, arbitrary- vs canonical-order summation, the
	// cancellation in the total-minus-columns differences (covered by
	// the absolute term) and the ×1e6 amplification at Kimchi's
	// latency wall (covered by the 1e-7·secs share, three orders wider
	// than 1e6 × the relative secs error).
	margin := 1e-7*(secs+load+usd+co2) + 1e-12*(s.totalT+s.totalU+s.compSum+cm)
	return v-margin >= bestV-1e-9
}

// mapScreen is the map-stage counterpart of screen: entries of the
// candidate whose source and destination DCs are untouched by the move
// are the base entries scaled by totalDeficit/totalDeficit', so the
// unchanged block's sums and max bound the candidate's objective from
// below in O(1) (the corners, which scale by two ratios at once,
// contribute ≥ 0 and are dropped). The compute side is screen's: top-3
// max, total-minus-two sums. Approximate, margin-guarded,
// rejection-only.
func (s *search) mapScreen(from, to int, pf, pt float64, bestV float64, sc Scorer) bool {
	n := s.n
	surF, defF := s.splitSD(from, pf)
	surT, defT := s.splitSD(to, pt)
	totalDefC := s.mapTotalDef - s.mapDef[from] - s.mapDef[to] + defF + defT
	k := 0.0
	if totalDefC > 0 && s.mapTotalDef > 0 {
		if totalDefC < 1e-6*s.mapTotalDef {
			// Near-total cancellation: the delta-computed denominator is
			// too noisy to bound the scale factor — never skip here.
			// (A non-positive totalDefC is different: the candidate
			// moves nothing, so k=0 under-counts and stays a valid
			// lower bound.)
			return false
		}
		k = s.mapTotalDef / totalDefC
	}
	cornerT := s.tE[from*n+to] + s.tE[to*n+from] + s.tE[from*n+from] + s.tE[to*n+to]
	cornerU := s.uE[from*n+to] + s.uE[to*n+from] + s.uE[from*n+from] + s.uE[to*n+to]
	blockT := s.mapTotT - s.mapRowT[from] - s.mapRowT[to] - s.mapColT[from] - s.mapColT[to] + cornerT
	blockU := s.mapTotU - s.mapRowU[from] - s.mapRowU[to] - s.mapColU[from] - s.mapColU[to] + cornerU
	if blockT < 0 {
		blockT = 0
	}
	if blockU < 0 {
		blockU = 0
	}
	blockMax := 0.0
	for _, e := range s.mapTop {
		if e.i != from && e.i != to && e.j != from && e.j != to {
			blockMax = e.v
			break
		}
	}

	// The moved DCs' own rows and columns scale entrywise too: for
	// j∉{from,to}, cand[from][j] = base[from][j]·(sur'/sur)·k, and
	// likewise columns by deficit ratios — so their sums and maxes join
	// the bound scaled, instead of being dropped (the corners, which
	// scale by two ratios at once, stay dropped — they are ≥ 0).
	rsF, rsT, csF, csT := 0.0, 0.0, 0.0, 0.0
	if k > 0 {
		if s.mapSur[from] > 0 {
			rsF = surF / s.mapSur[from] * k
		}
		if s.mapSur[to] > 0 {
			rsT = surT / s.mapSur[to] * k
		}
		if s.mapDef[from] > 0 {
			csF = defF / s.mapDef[from] * k
		}
		if s.mapDef[to] > 0 {
			csT = defT / s.mapDef[to] * k
		}
	}
	clamp0 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	netLoad := k*blockT +
		rsF*clamp0(s.mapRowT[from]-s.tE[from*n+from]-s.tE[from*n+to]) +
		rsT*clamp0(s.mapRowT[to]-s.tE[to*n+to]-s.tE[to*n+from]) +
		csF*clamp0(s.mapColT[from]-s.tE[from*n+from]-s.tE[to*n+from]) +
		csT*clamp0(s.mapColT[to]-s.tE[to*n+to]-s.tE[from*n+to])
	netUsd := k*blockU +
		rsF*clamp0(s.mapRowU[from]-s.uE[from*n+from]-s.uE[from*n+to]) +
		rsT*clamp0(s.mapRowU[to]-s.uE[to*n+to]-s.uE[to*n+from]) +
		csF*clamp0(s.mapColU[from]-s.uE[from*n+from]-s.uE[to*n+from]) +
		csT*clamp0(s.mapColU[to]-s.uE[to*n+to]-s.uE[from*n+to])
	tNet := k * blockMax
	rowMax := func(two [2]mapEntry, scale float64) {
		for _, e := range two {
			if e.i < 0 || e.j == from || e.j == to {
				continue // corner entries scale by two ratios; dropped
			}
			if v := scale * e.v; v > tNet {
				tNet = v
			}
			break
		}
	}
	colMax := func(two [2]mapEntry, scale float64) {
		for _, e := range two {
			if e.i < 0 || e.i == from || e.i == to {
				continue
			}
			if v := scale * e.v; v > tNet {
				tNet = v
			}
			break
		}
	}
	rowMax(s.mapRow2[from], rsF)
	rowMax(s.mapRow2[to], rsT)
	colMax(s.mapCol2[from], csF)
	colMax(s.mapCol2[to], csT)

	cF := pf * s.compRate[from]
	cT := pt * s.compRate[to]
	tComp := cF
	if cT > tComp {
		tComp = cT
	}
	tComp = s.topComp.maxExcluding(s.comp, from, to, tComp)
	compLoad := clamp0(s.compSum - s.comp[from] - s.comp[to] + cF + cT)

	co2, cm := 0.0, 0.0
	if s.needC {
		// Carbon entries scale entrywise like dollars: the unchanged
		// block by k, the moved DCs' rows/columns by their surplus/
		// deficit ratios, plus the compute carbon of the candidate.
		cornerC := s.cE[from*n+to] + s.cE[to*n+from] + s.cE[from*n+from] + s.cE[to*n+to]
		blockC := s.mapTotC - s.mapRowC[from] - s.mapRowC[to] - s.mapColC[from] - s.mapColC[to] + cornerC
		if blockC < 0 {
			blockC = 0
		}
		co2 = k*blockC +
			rsF*clamp0(s.mapRowC[from]-s.cE[from*n+from]-s.cE[from*n+to]) +
			rsT*clamp0(s.mapRowC[to]-s.cE[to*n+to]-s.cE[to*n+from]) +
			csF*clamp0(s.mapColC[from]-s.cE[from*n+from]-s.cE[to*n+from]) +
			csT*clamp0(s.mapColC[to]-s.cE[to*n+to]-s.cE[from*n+to])
		co2 += clamp0(s.compCarbSum - s.comp[from]*s.compC[from] - s.comp[to]*s.compC[to] +
			cF*s.compC[from] + cT*s.compC[to])
		cm = s.mapTotC + s.compCarbSum
	}

	secs := tNet + tComp
	load := netLoad + compLoad
	usd := netUsd
	v := sc.Score(Aggregates{Secs: secs, LoadSum: load, USD: usd, KgCO2: co2})
	// compSum and compCarbSum (in cm) sit in the absolute term because
	// the total-minus-two compute folds above cancel.
	margin := 1e-7*(secs+load+usd+co2) + 1e-12*(s.mapTotT+s.mapTotU+compLoad+s.compSum+cm)
	return v-margin >= bestV-1e-9
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
	if total <= 0 {
		u := 1 / float64(len(src))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	for i, v := range src {
		if v > 0 {
			dst[i] = v / total
		} else {
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
func (s *search) descend(start spark.Placement, sc Scorer) float64 {
	s.needC = sc.NeedsCarbon()
	if s.needC && !s.carbonReady {
		s.prepCarbon()
	}
	useScreens := sc.ScreenSafe()
	normalizeInto(s.p, start)
	s.fillBase()
	best := sc.Score(s.agg)
	isMap := s.stage.Kind == spark.MapKind
	step := 0.10
	for step >= 0.005 {
		for {
			bestV := best
			bestFrom, bestTo := -1, -1
			var bestAgg Aggregates
			for from := 0; from < s.n; from++ {
				if s.p[from] < step {
					continue
				}
				pf := s.p[from] - step
				for to := 0; to < s.n; to++ {
					if to == from {
						continue
					}
					pt := s.p[to] + step
					var a Aggregates
					if isMap {
						if useScreens && s.mapScreen(from, to, pf, pt, bestV, sc) {
							continue
						}
						a = s.evalMapCand(from, to, pf, pt)
					} else {
						if useScreens && s.screen(from, to, pf, pt, bestV, sc) {
							continue
						}
						a = s.evalShuffleCand(from, to, pf, pt)
					}
					if v := sc.Score(a); v < bestV-1e-9 {
						bestV = v
						bestFrom, bestTo = from, to
						bestAgg = a
					}
				}
			}
			if bestFrom < 0 {
				break
			}
			s.applyMove(bestFrom, bestTo, step)
			best = bestV
			s.agg = bestAgg
		}
		step /= 2
	}
	return best
}

// placeMultiStart runs the three-start descent under any Scorer and
// returns the winning placement in s.bestBuf along with its estimate
// aggregates. Kimchi reads the JCT phase's seconds for its latency
// budget directly instead of re-estimating the placement the descent
// just scored, and both of its phases share this one context.
func (s *search) placeMultiStart(sc Scorer) (best spark.Placement, agg Aggregates) {
	normalizeInto(s.starts[0], s.layout) // data locality
	u := 1 / float64(s.n)
	for i := range s.starts[1] {
		s.starts[1][i] = u // uniform
	}
	normalizeInto(s.starts[2], s.est.info.ComputeRates) // compute-proportional

	bestV := 0.0
	for i := 0; i < 3; i++ {
		v := s.descend(s.starts[i], sc)
		if i == 0 || v < bestV {
			bestV = v
			copy(s.bestBuf, s.p)
			agg = s.agg
		}
	}
	return s.bestBuf, agg
}

// descendGeneric is the allocation-light descent for objectives without
// estimator structure (Iridium's per-site model): identical moves and
// acceptance to descendReference, with one reused candidate buffer
// instead of a fresh slice per evaluation.
func descendGeneric(n int, start spark.Placement, objective func(spark.Placement) float64) spark.Placement {
	p := start.Normalize()
	cand := make(spark.Placement, n)
	best := objective(p)
	step := 0.10
	for step >= 0.005 {
		for {
			bestV := best
			bestFrom, bestTo := -1, -1
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
						bestV = v
						bestFrom, bestTo = from, to
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
		step /= 2
	}
	return p
}
