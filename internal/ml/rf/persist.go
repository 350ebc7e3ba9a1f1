package rf

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// The on-disk format mirrors the in-memory structures with exported
// fields so encoding/gob can reach them. The format is versioned to
// fail loudly on incompatible files rather than mis-predicting.

const persistVersion = 1

type persistNode struct {
	Feature   int
	Threshold float64
	Value     float64
	Left      int32
	Right     int32
}

type persistTree struct {
	Nodes    []persistNode
	FeatGain []float64
}

type persistForest struct {
	Version   int
	NFeatures int
	Config    Config
	Trees     []persistTree
}

// Save serializes the forest (trees and hyperparameters; out-of-bag
// bookkeeping is training-time state and is not persisted).
func (f *Forest) Save(w io.Writer) error {
	pf := persistForest{
		Version:   persistVersion,
		NFeatures: f.nFeatures,
		Config:    f.cfg,
		Trees:     make([]persistTree, len(f.trees)),
	}
	for i, t := range f.trees {
		pt := persistTree{
			Nodes:    make([]persistNode, len(t.nodes)),
			FeatGain: append([]float64(nil), t.featGain...),
		}
		for j, nd := range t.nodes {
			pt.Nodes[j] = persistNode{
				Feature: nd.feature, Threshold: nd.threshold,
				Value: nd.value, Left: nd.left, Right: nd.right,
			}
		}
		pf.Trees[i] = pt
	}
	return gob.NewEncoder(w).Encode(pf)
}

// Load deserializes a forest saved with Save. It refuses a forest
// prediction could not walk — a tree without nodes, a split on a
// feature outside the vector, a child out of range or not after its
// parent (the walk would loop), a non-finite threshold or value, leaf
// values whose sum over the trees overflows — and feature gains that
// outnumber the features. Loaded forests predict normally; out-of-bag
// statistics restart empty.
func Load(r io.Reader) (*Forest, error) {
	var pf persistForest
	if err := gob.NewDecoder(r).Decode(&pf); err != nil {
		return nil, fmt.Errorf("rf: decode: %w", err)
	}
	if pf.Version != persistVersion {
		return nil, fmt.Errorf("rf: model file version %d, want %d", pf.Version, persistVersion)
	}
	if pf.NFeatures <= 0 || len(pf.Trees) == 0 {
		return nil, fmt.Errorf("rf: model file is empty")
	}
	f := &Forest{
		cfg:       pf.Config,
		nFeatures: pf.NFeatures,
	}
	bound := 0.0 // Σ over trees of the largest |value|: it bounds every prediction
	for k, pt := range pf.Trees {
		if len(pt.Nodes) == 0 || len(pt.FeatGain) > pf.NFeatures {
			return nil, fmt.Errorf("rf: tree %d: %d nodes, %d feature gains for %d features", k, len(pt.Nodes), len(pt.FeatGain), pf.NFeatures)
		}
		t := &tree{
			nodes:    make([]node, len(pt.Nodes)),
			featGain: append([]float64(nil), pt.FeatGain...),
		}
		top := 0.0
		for j, nd := range pt.Nodes {
			finite := math.Abs(nd.Value) <= math.MaxFloat64 && math.Abs(nd.Threshold) <= math.MaxFloat64
			// A split reads x[Feature] and moves on to a strictly later node.
			walkable := nd.Feature < 0 || nd.Feature < pf.NFeatures &&
				int(min(nd.Left, nd.Right)) > j && int(max(nd.Left, nd.Right)) < len(pt.Nodes)
			if !finite || !walkable {
				return nil, fmt.Errorf("rf: tree %d: node %d %+v cannot be walked", k, j, nd)
			}
			top = max(top, math.Abs(nd.Value))
			t.nodes[j] = node{
				feature: nd.Feature, threshold: nd.Threshold,
				value: nd.Value, left: nd.Left, right: nd.Right,
			}
		}
		if bound += top; bound > math.MaxFloat64 {
			return nil, fmt.Errorf("rf: tree %d: leaf values overflow the ensemble sum", k)
		}
		f.trees = append(f.trees, t)
	}
	return f, nil
}
