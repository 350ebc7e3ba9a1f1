package rf

import (
	"sort"

	"github.com/wanify/wanify/internal/simrand"
)

// This file keeps the pre-optimization training code verbatim, the
// same playbook as netsim's allocateReference: the reference is the
// bit-exactness oracle (TestTrainMatchesReference locks the
// scratch-slab grower against it node for node) and the benchmark
// baseline (BenchmarkRFTrainReference beside BenchmarkRFTrain records
// what the optimization buys). It lives in a _test.go file, so no
// shipped binary carries it.

// trainReference fits a forest exactly like the original Train: one
// RNG stream consumed tree after tree, with fresh allocations for every
// bootstrap, sort order and partition.
func trainReference(ds Dataset, cfg Config) (*Forest, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	nFeat := len(ds.X[0])
	cfg = cfg.withDefaults(nFeat)
	f := &Forest{
		cfg:       cfg,
		nFeatures: nFeat,
		oobSum:    make([]float64, ds.Len()),
		oobCount:  make([]int, ds.Len()),
		oobY:      append([]float64(nil), ds.Y...),
	}
	f.addTreesReference(ds, cfg.NumTrees, simrand.Derive(cfg.Seed, "rf"))
	return f, nil
}

// addTreesReference grows k bootstrap trees on ds from rng and appends
// them — the original addTrees body.
func (f *Forest) addTreesReference(ds Dataset, k int, rng *simrand.Source) {
	p := f.cfg.MaxFeatures
	n := ds.Len()
	for t := 0; t < k; t++ {
		inBag := make([]bool, n)
		idx := make([]int, n)
		for i := range idx {
			j := rng.IntN(n)
			idx[i] = j
			inBag[j] = true
		}
		tr := growTreeReference(ds.X, ds.Y, idx, p, f.nFeatures, rng)
		f.trees = append(f.trees, tr)
		for i := 0; i < n; i++ {
			if !inBag[i] {
				f.oobSum[i] += tr.predict(ds.X[i])
				f.oobCount[i]++
			}
		}
	}
}

// growTreeReference builds a regression tree on the given sample
// indices — the original growTree.
func growTreeReference(x [][]float64, y []float64, idx []int, maxFeatures, nFeat int, rng *simrand.Source) *tree {
	t := &tree{featGain: make([]float64, nFeat)}
	t.buildReference(x, y, idx, maxFeatures, rng)
	return t
}

// buildReference grows the subtree for idx and returns its node index —
// the original build, allocating fresh left/right index slices per node.
func (t *tree) buildReference(x [][]float64, y []float64, idx []int, maxFeatures int, rng *simrand.Source) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{feature: -1, value: meanAt(y, idx)})

	if len(idx) < minSplit || constantAt(y, idx) {
		return self
	}

	feat, thr, gain, ok := bestSplitReference(x, y, idx, maxFeatures, rng)
	if !ok {
		return self
	}

	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < minLeaf || len(right) < minLeaf {
		return self
	}

	t.featGain[feat] += gain
	l := t.buildReference(x, y, left, maxFeatures, rng)
	r := t.buildReference(x, y, right, maxFeatures, rng)
	t.nodes[self].feature = feat
	t.nodes[self].threshold = thr
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

// bestSplitReference searches a random feature subset for the split
// with maximal SSE reduction — the original bestSplit, with its
// per-call order allocation and duplicate parent-mean computation.
func bestSplitReference(x [][]float64, y []float64, idx []int, maxFeatures int, rng *simrand.Source) (feat int, thr, gain float64, ok bool) {
	nFeat := len(x[0])
	candidates := rng.Perm(nFeat)
	if maxFeatures < nFeat {
		candidates = candidates[:maxFeatures]
	}

	// Parent SSE.
	parentMean := meanAt(y, idx)
	parentSSE := 0.0
	for _, i := range idx {
		d := y[i] - parentMean
		parentSSE += d * d
	}

	order := make([]int, len(idx))
	bestGain := 0.0
	for _, f := range candidates {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })

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
			g := parentSSE - sseL - sseR
			if g > bestGain {
				bestGain = g
				feat = f
				thr = (v + vNext) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestGain, ok
}
