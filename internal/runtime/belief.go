package runtime

// Last-known-good belief store for failure-aware re-gauging (see
// DESIGN.md §11). When a hardened snapshot comes back partial, the
// controller must still hand the predictor a full matrix — but a pair
// the probes could not measure must not read as zero (the poison this
// machinery exists to stop) nor as the stale value at full weight.
// The store keeps, per ordered DC pair, the last fused bandwidth, the
// time it was observed and a confidence; the belief's WEIGHT decays
// exponentially with staleness (half-life beliefHalfLifeS)
// while its VALUE holds, floored at the same 1 Mbps blackout belief
// internal/gda locks for believed-blackout pairs — an unmeasurable
// pair degrades gracefully toward "assume blackout", never "assume
// free capacity" and never "assume zero".

import (
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
)

// blackoutFloorMbps mirrors the gda blackout belief: no fused or
// believed bandwidth is ever reported below 1 Mbps, so the optimizer
// treats a long-unmeasured pair as a blackout, not a hole.
const blackoutFloorMbps = 1.0

// beliefHalfLifeS is the staleness half-life of a belief's confidence.
const beliefHalfLifeS = 120

// beliefStore holds the per-pair last-known-good bandwidth belief.
type beliefStore struct {
	mbps bwmatrix.Matrix
	at   [][]float64
	conf [][]float64
}

func newBeliefStore(n int) *beliefStore {
	b := &beliefStore{
		mbps: bwmatrix.New(n),
		at:   make([][]float64, n),
		conf: make([][]float64, n),
	}
	for i := range b.at {
		b.at[i] = make([]float64, n)
		b.conf[i] = make([]float64, n)
	}
	return b
}

// seed installs a prior belief for every off-diagonal pair — the
// prediction the current plan was built from, at modest confidence.
func (b *beliefStore) seed(m bwmatrix.Matrix, now, conf float64) {
	n := m.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			b.mbps[i][j] = m[i][j]
			b.at[i][j] = now
			b.conf[i][j] = conf
		}
	}
}

// weight returns the belief's staleness-decayed confidence:
// conf × 2^(−age/halfLife).
func (b *beliefStore) weight(i, j int, now float64) float64 {
	age := now - b.at[i][j]
	if age < 0 {
		age = 0
	}
	return b.conf[i][j] * math.Exp2(-age/beliefHalfLifeS)
}

// value returns the believed bandwidth, floored at the blackout
// belief.
func (b *beliefStore) value(i, j int) float64 {
	return math.Max(b.mbps[i][j], blackoutFloorMbps)
}

// fuse blends a fresh measurement into the belief and returns the
// fused value: a confidence-weighted average of the new sample and
// the decayed prior, floored at the blackout belief. The stored
// confidence is the probabilistic union of the two weights, so a
// string of low-confidence samples still converges.
func (b *beliefStore) fuse(i, j int, measured, conf, now float64) float64 {
	wNew := conf
	wOld := b.weight(i, j, now)
	var fused float64
	if wNew+wOld <= 0 {
		fused = measured
	} else {
		fused = (wNew*measured + wOld*b.value(i, j)) / (wNew + wOld)
	}
	fused = math.Max(fused, blackoutFloorMbps)
	b.mbps[i][j] = fused
	b.at[i][j] = now
	c := wNew + wOld*(1-wNew)
	if c > 1 {
		c = 1
	}
	b.conf[i][j] = c
	return fused
}
