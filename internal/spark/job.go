// Package spark is a minimal geo-distributed analytics engine — the
// Spark stand-in that hosts WANify in this reproduction. It models what
// the paper's evaluation actually measures: jobs as chains of stages,
// stage placement as a fraction of tasks per DC, hash-partitioned
// all-to-all shuffles whose bytes move over the netsim WAN, compute
// time scaled by per-DC capacity, and itemized job cost.
//
// The engine is deliberately policy-free: a gda.Scheduler decides where
// tasks run (based on whatever bandwidth matrix it believes), and a
// ConnPolicy decides how many parallel connections each transfer opens
// (single connection for vanilla systems, agent-managed heterogeneous
// pools under WANify). Everything the paper varies is injected.
package spark

import (
	"fmt"
	"math"
)

// StageKind distinguishes how a stage's input reaches its tasks.
type StageKind int

const (
	// MapKind stages read bulk input: only the imbalance between the
	// current data layout and the task placement moves over the WAN
	// (input migration). A locality-aligned placement moves nothing.
	MapKind StageKind = iota
	// ReduceKind stages consume hash-partitioned intermediate data:
	// every source DC sends every destination DC its share, the
	// all-to-all shuffle of §2.1.
	ReduceKind
)

// String names the kind.
func (k StageKind) String() string {
	if k == MapKind {
		return "map"
	}
	return "reduce"
}

// Stage describes one stage of a job.
type Stage struct {
	// Name identifies the stage in reports.
	Name string
	// Kind selects migration vs shuffle semantics.
	Kind StageKind
	// SecPerGB is the compute time per GB of stage input on a DC with
	// unit compute rate.
	SecPerGB float64
	// Selectivity is output bytes per input byte.
	Selectivity float64
}

// Job is a chain of stages over a geo-distributed input.
type Job struct {
	// Name identifies the job.
	Name string
	// InputBytes is the initial data layout: bytes resident per DC.
	InputBytes []float64
	// Stages run in order; the first is normally a MapKind stage.
	Stages []Stage
}

// TotalInputBytes returns the job's total input size.
func (j Job) TotalInputBytes() float64 {
	t := 0.0
	for _, b := range j.InputBytes {
		t += b
	}
	return t
}

// Validate checks the job shape against a cluster of n DCs.
func (j Job) Validate(n int) error {
	if len(j.InputBytes) != n {
		return fmt.Errorf("spark: job %q has input for %d DCs, cluster has %d", j.Name, len(j.InputBytes), n)
	}
	for dc, b := range j.InputBytes {
		if !(b >= 0) || math.IsInf(b, 1) {
			return fmt.Errorf("spark: job %q has input %v bytes at DC %d", j.Name, b, dc)
		}
	}
	if len(j.Stages) == 0 {
		return fmt.Errorf("spark: job %q has no stages", j.Name)
	}
	for _, s := range j.Stages {
		if s.Selectivity < 0 || s.SecPerGB < 0 {
			return fmt.Errorf("spark: job %q stage %q has negative parameters", j.Name, s.Name)
		}
	}
	return nil
}

// Placement is the fraction of a stage's tasks assigned to each DC.
// Entries are non-negative and sum to 1.
type Placement []float64

// Normalize returns a copy scaled to sum to 1 (uniform if degenerate).
func (p Placement) Normalize() Placement {
	out := make(Placement, len(p))
	total := 0.0
	for _, v := range p {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		for i := range out {
			out[i] = 1 / float64(len(p))
		}
		return out
	}
	for i, v := range p {
		if v > 0 {
			out[i] = v / total
		}
	}
	return out
}

// LocalityPlacement returns the placement proportional to the current
// data layout — vanilla Spark's data-locality preference.
func LocalityPlacement(layout []float64) Placement {
	return Placement(append([]float64(nil), layout...)).Normalize()
}

// UniformPlacement spreads tasks evenly over n DCs.
func UniformPlacement(n int) Placement {
	p := make(Placement, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

// migrationFactors writes MigrationMatrix's factors into row and col
// (each len(layout) long): row[i] is DC i's surplus, col[j] DC j's
// share of the total deficit. Everything else is zero.
func migrationFactors(row, col, layout []float64, target Placement) {
	clear(row)
	clear(col)
	total := 0.0
	for _, b := range layout {
		total += b
	}
	if total <= 0 {
		return
	}
	var totalDeficit float64
	for i := range layout {
		want := total * target[i]
		if layout[i] > want {
			row[i] = layout[i] - want
		} else {
			col[i] = want - layout[i]
			totalDeficit += col[i]
		}
	}
	if totalDeficit <= 0 {
		return
	}
	for j := range col {
		col[j] /= totalDeficit
	}
}

// eachPair calls fn with every non-zero off-diagonal entry row[i]·col[j],
// i-major. Both stage kinds plan their transfer as such an outer
// product; the dense matrices and a stage's pair list are its sinks.
func eachPair(row, col []float64, fn func(i, j int, b float64)) {
	for i, r := range row {
		if r == 0 {
			continue
		}
		for j, c := range col {
			if b := r * c; b != 0 && i != j {
				fn(i, j, b)
			}
		}
	}
}

// denseOf is eachPair's n×n sink, one backing array.
func denseOf(row, col []float64) [][]float64 {
	n := len(row)
	t, backing := make([][]float64, n), make([]float64, n*n)
	for i := range t {
		t[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	eachPair(row, col, func(i, j int, b float64) { t[i][j] = b })
	return t
}

// pairsOf is eachPair's list sink, at exact length.
func pairsOf(row, col []float64) []PairStat {
	n := 0
	eachPair(row, col, func(int, int, float64) { n++ })
	out := make([]PairStat, 0, n)
	eachPair(row, col, func(i, j int, b float64) { out = append(out, PairStat{I: int32(i), J: int32(j), Bytes: b}) })
	return out
}

// MigrationMatrix computes the minimal bulk movement (bytes from i to
// j) that turns the current layout into the target distribution: DCs
// with surplus send, DCs with deficit receive, matched proportionally.
func MigrationMatrix(layout []float64, target Placement) [][]float64 {
	row, col := make([]float64, len(layout)), make([]float64, len(layout))
	migrationFactors(row, col, layout, target)
	return denseOf(row, col)
}

// ShuffleMatrix computes the all-to-all hash-shuffle transfer: source
// DC i holds layout[i] intermediate bytes, of which the fraction
// target[j] belongs to reduce tasks at DC j. The diagonal (local data)
// is zeroed — it never crosses the WAN.
func ShuffleMatrix(layout []float64, target Placement) [][]float64 {
	return denseOf(layout, target)
}
