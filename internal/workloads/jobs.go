// Package workloads models the applications the paper evaluates WANify
// with (§5.1): TeraSort, WordCount with controllable intermediate data,
// four TPC-DS queries spanning light to heavy shuffle volumes, and a
// geo-distributed ML training loop with bandwidth-driven gradient
// quantization (SAGQ [15] and variants).
//
// Job profiles are expressed as stage chains with per-stage compute
// intensity (seconds per GB on a unit-rate worker) and selectivity
// (output bytes per input byte). The TPC-DS profiles are shaped to the
// paper's classification — query 82 light-weight, 95 and 11
// average-weight, 78 heavy-weight — so the WAN-bound fraction, and
// therefore WANify's headroom, grows in that order.
package workloads

import (
	"fmt"

	"github.com/wanify/wanify/internal/spark"
)

// UniformInput spreads totalBytes evenly over n DCs — the default HDFS
// layout of the paper's experiments.
func UniformInput(n int, totalBytes float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = totalBytes / float64(n)
	}
	return out
}

// SkewedInput concentrates hotShare of totalBytes on the given hot DCs
// (evenly among them), spreading the remainder over the others — the
// §5.8.1 skew setup where HDFS blocks are moved toward a few regions.
// When every DC is hot there are no others, and the hot DCs share the
// whole total.
func SkewedInput(n int, totalBytes float64, hotDCs []int, hotShare float64) []float64 {
	out := make([]float64, n)
	hot := make(map[int]bool, len(hotDCs))
	for _, d := range hotDCs {
		hot[d] = true
	}
	cold := n - len(hot)
	if cold == 0 {
		hotShare = 1
	}
	for i := range out {
		if hot[i] {
			out[i] = totalBytes * hotShare / float64(len(hot))
		} else if cold > 0 {
			out[i] = totalBytes * (1 - hotShare) / float64(cold)
		}
	}
	return out
}

// SkewWeights converts an input layout to per-DC skew weights ws for
// the global optimizer (§3.3.1): weight proportional to the DC's share
// of input bytes.
func SkewWeights(layout []float64) []float64 {
	total := 0.0
	for _, b := range layout {
		total += b
	}
	out := make([]float64, len(layout))
	if total <= 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	for i, b := range layout {
		out[i] = b / total * float64(len(layout))
	}
	return out
}

// TeraSort builds the paper's TeraSort job: a scan map stage followed
// by a full-data sort whose shuffle moves the entire dataset.
func TeraSort(inputPerDC []float64) spark.Job {
	return spark.Job{
		Name:       "terasort",
		InputBytes: append([]float64(nil), inputPerDC...),
		Stages: []spark.Stage{
			{Name: "sample-partition", Kind: spark.MapKind, SecPerGB: 5, Selectivity: 1.0},
			{Name: "sort", Kind: spark.ReduceKind, SecPerGB: 16, Selectivity: 1.0},
		},
	}
}

// WordCount builds a WordCount whose intermediate (shuffle) volume is
// controlled directly — the paper generates all-distinct words to pin
// the shuffle size (§5.3.2). shuffleBytes is the total map-output
// volume subject to the all-to-all exchange.
func WordCount(inputPerDC []float64, shuffleBytes float64) spark.Job {
	total := 0.0
	for _, b := range inputPerDC {
		total += b
	}
	sel := 1.0
	if total > 0 {
		sel = shuffleBytes / total
	}
	return spark.Job{
		Name:       "wordcount",
		InputBytes: append([]float64(nil), inputPerDC...),
		Stages: []spark.Stage{
			{Name: "tokenize", Kind: spark.MapKind, SecPerGB: 8, Selectivity: sel},
			{Name: "count", Kind: spark.ReduceKind, SecPerGB: 6, Selectivity: 0.1},
		},
	}
}

// tpcdsProfiles maps query number → stage chain. Selectivities are
// relative to each stage's input; with 100 GB total input, query 78
// shuffles ~15 GB in its first exchange, 82 only ~0.2 GB.
var tpcdsProfiles = map[int][]spark.Stage{
	82: {
		{Name: "scan-filter", Kind: spark.MapKind, SecPerGB: 4, Selectivity: 0.004},
		{Name: "join-agg", Kind: spark.ReduceKind, SecPerGB: 10, Selectivity: 0.5},
	},
	95: {
		{Name: "scan-filter", Kind: spark.MapKind, SecPerGB: 4, Selectivity: 0.22},
		{Name: "join", Kind: spark.ReduceKind, SecPerGB: 8, Selectivity: 0.40},
		{Name: "agg", Kind: spark.ReduceKind, SecPerGB: 6, Selectivity: 0.10},
	},
	11: {
		{Name: "scan-filter", Kind: spark.MapKind, SecPerGB: 4, Selectivity: 0.32},
		{Name: "join", Kind: spark.ReduceKind, SecPerGB: 8, Selectivity: 0.45},
		{Name: "agg", Kind: spark.ReduceKind, SecPerGB: 6, Selectivity: 0.10},
	},
	78: {
		{Name: "scan-filter", Kind: spark.MapKind, SecPerGB: 5, Selectivity: 0.55},
		{Name: "join-1", Kind: spark.ReduceKind, SecPerGB: 9, Selectivity: 0.60},
		{Name: "join-2", Kind: spark.ReduceKind, SecPerGB: 8, Selectivity: 0.40},
		{Name: "agg", Kind: spark.ReduceKind, SecPerGB: 6, Selectivity: 0.10},
	},
}

// TPCDSQueries lists the implemented query numbers in the paper's
// order: light (82), average (95, 11), heavy (78).
func TPCDSQueries() []int { return []int{82, 95, 11, 78} }

// TPCDS builds the job model for one of the paper's TPC-DS queries
// (82, 95, 11 or 78) over the given input layout.
func TPCDS(query int, inputPerDC []float64) (spark.Job, error) {
	stages, ok := tpcdsProfiles[query]
	if !ok {
		return spark.Job{}, fmt.Errorf("workloads: TPC-DS query %d not modelled (have 82, 95, 11, 78)", query)
	}
	cp := make([]spark.Stage, len(stages))
	copy(cp, stages)
	return spark.Job{
		Name:       fmt.Sprintf("tpcds-q%d", query),
		InputBytes: append([]float64(nil), inputPerDC...),
		Stages:     cp,
	}, nil
}
