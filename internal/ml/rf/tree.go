package rf

import (
	"math"
	"slices"

	"github.com/wanify/wanify/internal/simrand"
)

// node is one node of a CART regression tree. Leaves have feature == -1.
type node struct {
	feature   int     // split feature index, or -1 for a leaf
	threshold float64 // go left when x[feature] <= threshold
	value     float64 // leaf prediction (mean of training labels)
	left      int32   // child indices into tree.nodes
	right     int32
}

// tree is a CART regression tree grown by variance-reduction splitting.
// Nodes are stored in a flat slice for cache-friendly prediction.
type tree struct {
	nodes []node
	// featGain accumulates the total impurity (SSE) decrease attributed
	// to each feature, for feature-importance reporting.
	featGain []float64
}

// Tree growth stops at nodes below minSplit samples and never leaves
// fewer than minLeaf samples on a side. Depth is unbounded.
const (
	minLeaf  = 2
	minSplit = 5
)

// grower grows CART trees over one dataset with reusable scratch slabs:
// the sort order, the stable-partition halves and the feature
// permutation are allocated once and shared by every node of every tree
// the grower builds, instead of the reference's fresh slices per node.
// Trees produced by a grower are bit-identical to growTreeReference for
// the same RNG state: the split search performs the same float
// operations in the same order, the partition preserves the reference's
// left-before-right stable ordering, and PermInto draws exactly the
// randoms Perm would (locked by TestTrainMatchesReference).
//
// A grower is single-goroutine state; parallel training gives each
// worker its own.
type grower struct {
	x           [][]float64
	y           []float64
	maxFeatures int // features sampled per split
	nFeat       int
	rng         *simrand.Source

	order []int // bestSplit sort buffer (len = dataset size)
	lbuf  []int // stable-partition scratch, left half
	rbuf  []int // stable-partition scratch, right half
	perm  []int // feature-subsample buffer (len = nFeat)
}

// newGrower sizes the scratch for a dataset of len(x) rows.
func newGrower(x [][]float64, y []float64, maxFeatures, nFeat int) *grower {
	n := len(x)
	return &grower{
		x: x, y: y, maxFeatures: maxFeatures, nFeat: nFeat,
		order: make([]int, n),
		lbuf:  make([]int, n),
		rbuf:  make([]int, n),
		perm:  make([]int, nFeat),
	}
}

// grow builds one tree on the bootstrap indices idx, consuming
// randomness from g.rng. idx is scratch: grow reorders it in place
// while recursing, so the caller must refill it before the next tree.
func (g *grower) grow(idx []int) *tree {
	t := &tree{featGain: make([]float64, g.nFeat)}
	g.build(t, idx)
	return t
}

// build grows the subtree over idx and returns its node index.
func (g *grower) build(t *tree, idx []int) int32 {
	self := int32(len(t.nodes))
	mean := meanAt(g.y, idx)
	t.nodes = append(t.nodes, node{feature: -1, value: mean})

	if len(idx) < minSplit || constantAt(g.y, idx) {
		return self
	}

	feat, thr, gain, ok := g.bestSplit(idx, mean)
	if !ok {
		return self
	}

	// Stable partition into the scratch halves, then back into idx with
	// the left block first — the same ordering the reference's append
	// loops produced, so the recursion sees identical index sequences.
	nl, nr := 0, 0
	for _, i := range idx {
		if g.x[i][feat] <= thr {
			g.lbuf[nl] = i
			nl++
		} else {
			g.rbuf[nr] = i
			nr++
		}
	}
	if nl < minLeaf || nr < minLeaf {
		return self
	}
	copy(idx[:nl], g.lbuf[:nl])
	copy(idx[nl:], g.rbuf[:nr])

	t.featGain[feat] += gain
	l := g.build(t, idx[:nl])
	r := g.build(t, idx[nl:])
	t.nodes[self].feature = feat
	t.nodes[self].threshold = thr
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

// bestSplit searches a random feature subset for the split with maximal
// SSE reduction, requiring minLeaf samples on both sides. parentMean is
// the node mean build already computed (the reference recomputed it).
func (g *grower) bestSplit(idx []int, parentMean float64) (feat int, thr, gain float64, ok bool) {
	candidates := g.rng.PermInto(g.perm)
	if g.maxFeatures < g.nFeat {
		candidates = candidates[:g.maxFeatures]
	}

	// Parent SSE.
	parentSSE := 0.0
	for _, i := range idx {
		d := g.y[i] - parentMean
		parentSSE += d * d
	}

	x, y := g.x, g.y
	order := g.order[:len(idx)]
	bestGain := 0.0
	for _, f := range candidates {
		copy(order, idx)
		slices.SortFunc(order, func(a, b int) int {
			switch va, vb := x[a][f], x[b][f]; {
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return 0
		})

		// Prefix scan: evaluate every boundary between distinct values.
		var sumL, sumSqL float64
		sumR, sumSqR := 0.0, 0.0
		for _, i := range order {
			sumR += y[i]
			sumSqR += y[i] * y[i]
		}
		n := float64(len(order))
		for k := 0; k < len(order)-1; k++ {
			yi := y[order[k]]
			sumL += yi
			sumSqL += yi * yi
			sumR -= yi
			sumSqR -= yi * yi
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < minLeaf || int(nr) < minLeaf {
				continue
			}
			v, vNext := x[order[k]][f], x[order[k+1]][f]
			if v == vNext {
				continue // cannot split between equal values
			}
			sseL := sumSqL - sumL*sumL/nl
			sseR := sumSqR - sumR*sumR/nr
			gn := parentSSE - sseL - sseR
			if gn > bestGain {
				bestGain = gn
				feat = f
				thr = (v + vNext) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestGain, ok
}

// predict walks the tree for one feature vector.
func (t *tree) predict(x []float64) float64 {
	ni := int32(0)
	for {
		nd := &t.nodes[ni]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			ni = nd.left
		} else {
			ni = nd.right
		}
	}
}

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func constantAt(y []float64, idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if math.Abs(y[i]-first) > 1e-12 {
			return false
		}
	}
	return true
}
