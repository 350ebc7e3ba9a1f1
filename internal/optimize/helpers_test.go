package optimize

import (
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/simrand"
)

// newTestRand adapts arbitrary (possibly negative) quick.Check seeds to
// a deterministic stream.
func newTestRand(seed int64) *simrand.Source {
	return simrand.New(uint64(seed), 0x9e3779b97f4a7c15)
}

// inferDCRelations is Algorithm 1 into fresh storage.
func inferDCRelations(bw bwmatrix.Matrix, d float64) [][]int {
	return InferDCRelationsInto(nil, bw, d, nil)
}

// splitProportional is splitProportionalInto into fresh storage.
func splitProportional(total int, weights []float64) []int {
	out := make([]int, len(weights))
	splitProportionalInto(out, make([]float64, len(weights)), total, weights)
	return out
}
