// Package optimize implements WANify's static global optimization
// (§3.2.1): inferring data-center relationships from predicted runtime
// bandwidths (Algorithm 1) and deriving the optimal range of
// heterogeneous parallel connections and achievable bandwidths per DC
// pair (Eq. 2–3), including the heterogeneity adjustments of §3.3 —
// skewness weights (ws), the refactoring vector (rvec) for multi-cloud
// deployments, and association/chunking for DCs with multiple VMs.
//
// The outputs are the [minCons, maxCons] connection windows and
// [minBW, maxBW] achievable-bandwidth targets that WANify's local
// agents fine-tune at runtime (§3.2.2).
package optimize

import (
	"fmt"
	"math"
	"sort"

	"github.com/wanify/wanify/internal/bwmatrix"
)

// DefaultM is the default cap on parallel connections from a reference
// DC toward one peer. The paper's measurements found no benefit past 8
// connections per link (§2.2).
const DefaultM = 8

// DefaultD is the default minimum bandwidth difference (Mbps) for two
// BW levels to be considered distinct when inferring DC relationships
// (the worked example in §3.2.1 uses 30).
const DefaultD = 30.0

// levelEps is the relative float tolerance under which two bandwidth
// values are the *same* level during relation inference: predictions
// are tree-ensemble averages, so values meant to be equal can differ by
// rounding noise many orders of magnitude below any meaningful D.
const levelEps = 1e-9

// Scratch holds the reusable temporaries of the Into variants below.
// The runtime re-gauging controller re-plans on the live path every
// replan, so GlobalOptimize's interior allocations (the diagonal-lifted
// matrix clone, the level set, the weight and row-max buffers) are
// caller-poolable. A zero Scratch is ready to use; it grows to the
// largest cluster seen and is NOT safe for concurrent use.
type Scratch struct {
	bw     bwmatrix.Matrix
	levels []float64
	maxR   []int
	ws     []float64
}

// levelBuf returns a zero-length level buffer with capacity n².
func (s *Scratch) levelBuf(n int) []float64 {
	if s == nil {
		return nil
	}
	if cap(s.levels) < n*n {
		s.levels = make([]float64, 0, n*n)
	}
	return s.levels[:0]
}

// reuseRel returns dst when it is already n×n, else a fresh matrix
// with one contiguous backing.
func reuseRel(dst [][]int, n int) [][]int {
	if len(dst) == n && (n == 0 || len(dst[0]) == n) {
		return dst
	}
	dst = make([][]int, n)
	backing := make([]int, n*n)
	for i := range dst {
		dst[i], backing = backing[:n:n], backing[n:]
	}
	return dst
}

// InferDCRelationsInto implements Algorithm 1 (INFER_DC_RELATIONS).
//
// Given a runtime bandwidth matrix and the minimum significant
// difference D, it returns the closeness-index matrix DCrel: 1 for the
// closest relationship (highest bandwidth level) up to L for the most
// distant, where L is the number of distinct bandwidth levels after
// filtering. The input's diagonal participates exactly as written in
// the paper (callers place an intra-DC bandwidth there; see
// GlobalOptimize).
//
// Note: the paper's pseudocode loops i,j over 1..N/2, but its own
// worked example assigns closeness to every pair; we iterate all pairs
// (see DESIGN.md §2, "known paper quirks").
//
// The result matrix is dst when already n×n (nil: a fresh one), and s
// (nil: fresh) holds the temporaries.
func InferDCRelationsInto(dst [][]int, bw bwmatrix.Matrix, d float64, s *Scratch) [][]int {
	n := bw.N()

	// bwu = sort(set(bw)) — unique bandwidth levels, ascending. The set
	// is built with a float tolerance rather than exact equality: two
	// predictions differing by a rounding artifact (1e-9 Mbps) are one
	// level, not two. An exact-equality set would keep both, and the
	// D filter below compares each level against its *immediate* lower
	// neighbor — so a phantom ε-duplicate sitting D below a legitimate
	// level makes that level look insignificant and drops it, shifting
	// every closeness index derived from the survivors.
	bwu := s.levelBuf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bwu = append(bwu, bw[i][j])
		}
	}
	sort.Float64s(bwu)
	uniq := bwu[:0]
	for _, v := range bwu {
		if len(uniq) == 0 || v-uniq[len(uniq)-1] > levelEps*math.Max(1, math.Abs(v)) {
			uniq = append(uniq, v)
		}
	}
	bwu = uniq

	// Reverse traversal: drop levels within D of their lower neighbor.
	for i := len(bwu) - 1; i >= 1; i-- {
		if bwu[i]-bwu[i-1] < d {
			bwu = append(bwu[:i], bwu[i+1:]...)
		}
	}

	l := len(bwu)
	rel := reuseRel(dst, n)
	for i := range rel {
		for j := range rel[i] {
			rel[i][j] = 1
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := bw[i][j]
			k := sort.SearchFloat64s(bwu, v)
			switch {
			case k < l && bwu[k] == v:
				// Exact match at (0-based) index k.
				rel[i][j] = l - k
			case k == 0:
				rel[i][j] = l // below the lowest level
			case k == l:
				rel[i][j] = 1 // above the highest level
			default:
				// Between bwu[k-1] and bwu[k]: pick the nearer level.
				chosen := k - 1
				if math.Abs(bwu[k]-v) < math.Abs(v-bwu[k-1]) {
					chosen = k
				}
				rel[i][j] = l - chosen
			}
		}
	}
	return rel
}

// Plan is the output of global optimization: the connection window and
// achievable-bandwidth targets per DC pair (§2.3's two matrices, as
// ranges), which local agents consume.
type Plan struct {
	// DCRel is the closeness-index matrix from Algorithm 1.
	DCRel [][]int
	// MinConns and MaxConns bound the heterogeneous connection counts.
	MinConns, MaxConns bwmatrix.ConnMatrix
	// MinBW and MaxBW are the corresponding achievable-bandwidth
	// targets (predicted BW × connections × rvec, Eq. 3).
	MinBW, MaxBW bwmatrix.Matrix
}

// Options configures global optimization.
type Options struct {
	// M is the maximum parallel connections from a reference DC toward
	// a peer (default DefaultM).
	M int
	// D is the minimum significant bandwidth difference for relation
	// inference (default DefaultD).
	D float64
	// SkewWeights (ws, §3.3.1) holds one weight per DC, proportional to
	// its share of input data. nil means uniform. Weights are
	// normalized to mean 1 and applied symmetrically to each pair.
	SkewWeights []float64
	// RVec (§3.3.3) is an optional per-pair refactoring matrix for
	// heterogeneous providers/instance types; nil means all ones.
	RVec bwmatrix.Matrix
}

func (o Options) withDefaults() Options {
	if o.M == 0 {
		o.M = DefaultM
	}
	if o.D == 0 {
		o.D = DefaultD
	}
	return o
}

// GlobalOptimize derives the optimal connection and bandwidth ranges
// from a predicted runtime bandwidth matrix (Eq. 2–3).
//
// The input matrix carries off-diagonal pairwise bandwidths; its
// diagonal is replaced by a level strictly above every off-diagonal
// value (an intra-DC transfer never crosses the WAN), mirroring the
// paper's example where diagonal entries hold the highest level.
func GlobalOptimize(pred bwmatrix.Matrix, opts Options) Plan {
	var plan Plan
	GlobalOptimizeInto(&plan, pred, opts, nil)
	return plan
}

// GlobalOptimizeInto is GlobalOptimize writing into a caller-owned
// plan: dst's matrices are reused when they already have the right
// shape (a zero Plan allocates them once) and s, when non-nil,
// supplies the interior temporaries. Results are identical to
// GlobalOptimize's. Ownership rule: the returned plan aliases dst's
// matrices, so callers that retain plans across replans must pass a
// fresh dst per call and reuse only the Scratch (the framework does
// exactly this).
func GlobalOptimizeInto(dst *Plan, pred bwmatrix.Matrix, opts Options, s *Scratch) {
	opts = opts.withDefaults()
	n := pred.N()
	if n == 0 {
		*dst = Plan{}
		return
	}
	if opts.SkewWeights != nil && len(opts.SkewWeights) != n {
		panic(fmt.Sprintf("optimize: %d skew weights for %d DCs", len(opts.SkewWeights), n))
	}
	if opts.RVec != nil && opts.RVec.N() != n {
		panic(fmt.Sprintf("optimize: rvec is %dx%d, want %dx%d", opts.RVec.N(), opts.RVec.N(), n, n))
	}

	var bw bwmatrix.Matrix
	if s != nil {
		if s.bw.N() != n {
			s.bw = bwmatrix.New(n)
		}
		bw = s.bw
		for i := range pred {
			copy(bw[i], pred[i])
		}
	} else {
		bw = pred.Clone()
	}
	diag := bw.MaxOffDiagonal()*1.5 + 10*opts.D
	for i := 0; i < n; i++ {
		bw[i][i] = diag
	}
	rel := InferDCRelationsInto(dst.DCRel, bw, opts.D, s)

	// Eq. 2.
	sumAll := 0
	var maxR []int
	if s != nil {
		if cap(s.maxR) < n {
			s.maxR = make([]int, n)
		}
		maxR = s.maxR[:n]
		clear(maxR)
	} else {
		maxR = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sumAll += rel[i][j]
			if rel[i][j] > maxR[i] {
				maxR[i] = rel[i][j]
			}
		}
	}
	sumAll -= n // skip closeness index 1 on the diagonal

	var ws []float64
	if s != nil {
		if cap(s.ws) < n {
			s.ws = make([]float64, n)
		}
		ws = normalizedWeightsInto(s.ws[:n], opts.SkewWeights)
	} else {
		ws = normalizedWeightsInto(make([]float64, n), opts.SkewWeights)
	}

	if dst.MinConns.N() != n {
		dst.MinConns = bwmatrix.NewConn(n)
		dst.MaxConns = bwmatrix.NewConn(n)
		dst.MinBW = bwmatrix.New(n)
		dst.MaxBW = bwmatrix.New(n)
	}
	plan := Plan{
		DCRel:    rel,
		MinConns: dst.MinConns,
		MaxConns: dst.MaxConns,
		MinBW:    dst.MinBW,
		MaxBW:    dst.MaxBW,
	}
	m := float64(opts.M)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Skew weights apply source-side: a data-intensive DC is a
			// shuffle *source* ("data locality-aware task assignment
			// creates large-scale intermediate data in skewed DCs,
			// demanding higher network capacities in shuffle stages",
			// §3.3.1), so its outgoing links get extra connections.
			// The boost is one-sided: data-poor DCs keep their plain
			// window rather than being starved below it — their residual
			// traffic still needs at least the un-skewed connections,
			// and the AIMD agents shed any excess at runtime.
			wsPair := math.Max(1, ws[i])
			var minC, maxC int
			if i == j {
				minC, maxC = 1, 1
			} else {
				cand := int(math.Floor(float64(rel[i][j]) / float64(sumAll) * (m - 1)))
				minC = clampConns(float64(max(cand, 1))*wsPair, opts.M)
				maxC = clampConns(math.Ceil(m*float64(rel[i][j])/float64(maxR[i]))*wsPair, opts.M)
				if maxC < minC {
					maxC = minC
				}
			}
			plan.MinConns[i][j] = minC
			plan.MaxConns[i][j] = maxC
			rv := 1.0
			if opts.RVec != nil {
				rv = opts.RVec[i][j]
			}
			if i != j {
				plan.MinBW[i][j] = pred[i][j] * float64(minC) * rv
				plan.MaxBW[i][j] = pred[i][j] * float64(maxC) * rv
			}
		}
	}
	*dst = plan
}

// clampConns rounds a (possibly skew-scaled) connection count to an
// integer in [1, M]: M is the hard per-pair cap ("the maximum parallel
// connections from a VM in a given DC is limited, and increasing
// connections beyond this optimal threshold causes performance
// degradation", §3.2.1), so skew re-allocation redistributes headroom
// below M rather than stacking connections past the congestion knee.
func clampConns(v float64, m int) int {
	c := int(math.Round(v))
	if c < 1 {
		c = 1
	}
	if c > m {
		c = m
	}
	return c
}

// normalizedWeightsInto writes ws normalized to mean 1 into out
// (uniform when ws is nil or degenerate) and returns it.
func normalizedWeightsInto(out []float64, ws []float64) []float64 {
	n := len(out)
	if ws == nil {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	total := 0.0
	for _, w := range ws {
		if w < 0 {
			w = 0
		}
		total += w
	}
	if total <= 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	mean := total / float64(n)
	for i, w := range ws {
		if w < 0 {
			w = 0
		}
		out[i] = w / mean
	}
	return out
}

// RefactorFromProviders builds the refactoring matrix rvec of §3.3.3
// for a multi-cloud deployment: the paper observes that bandwidths
// "between such providers and machine types vary proportionally", so
// cross-provider pairs are scaled by the geometric mean of the two
// providers' factors. providerFactor maps provider names (geo.Region
// Provider values) to their relative WAN efficiency; absent providers
// default to 1.
func RefactorFromProviders(providers []string, providerFactor map[string]float64) bwmatrix.Matrix {
	n := len(providers)
	f := func(p string) float64 {
		if v, ok := providerFactor[p]; ok && v > 0 {
			return v
		}
		return 1
	}
	out := bwmatrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i][j] = math.Sqrt(f(providers[i]) * f(providers[j]))
		}
	}
	return out
}

// ThrottleThresholds returns, per source DC, the throttling threshold T
// of §3.2.2: the mean of achievable (max) bandwidths from that DC.
// Local agents cap links richer than T at T so nearby DCs cannot
// consume the bulk of the network.
func ThrottleThresholds(maxBW bwmatrix.Matrix) []float64 {
	n := maxBW.N()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sum, cnt := 0.0, 0
		for j := 0; j < n; j++ {
			if i != j {
				sum += maxBW[i][j]
				cnt++
			}
		}
		if cnt > 0 {
			out[i] = sum / float64(cnt)
		}
	}
	return out
}
