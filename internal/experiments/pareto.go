package experiments

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/workloads"
)

// --- Pareto: multi-objective scheduler sweep ---
//
// The pluggable Scorer interface makes the descent objective a free
// variable; this driver sweeps it. Every variant runs the same TeraSort
// on a fresh copy of the 8-DC testbed with oracle beliefs (so the sweep
// isolates the objective, not the belief pipeline) and reports the
// three objectives every scorer trades between: job completion time,
// dollars, and kilograms of CO2-equivalent. Rows no other row beats on
// all three axes at once form the Pareto frontier.

func init() {
	Registry["pareto"] = func(p Params) (Result, error) { return Pareto(p) }
}

// paretoVariants are the swept -sched specs: the classic composed
// schedulers, the single-objective scorers, and blend weights walking
// the JCT-vs-cost and JCT-vs-carbon edges plus the balanced interior
// point. Specs resolve through gda.ParseScheduler, like wanify-sim's
// -sched flag.
var paretoVariants = []string{
	"locality",
	"iridium",
	"tetrium",
	"kimchi",
	"cost",
	"carbon",
	"blend:jct=0.75,cost=0.25",
	"blend:jct=0.5,cost=0.5",
	"blend:jct=0.25,cost=0.75",
	"blend:jct=0.75,carbon=0.25",
	"blend:jct=0.5,carbon=0.5",
	"blend:jct=0.25,carbon=0.75",
	"blend:jct=0.34,cost=0.33,carbon=0.33",
}

// ParetoRow is one scheduler variant's objective vector.
type ParetoRow struct {
	Sched    string
	JCT      float64 // seconds
	USD      float64 // itemized run cost, dollars
	KgCO2    float64 // compute + WAN energy, kgCO2e
	Frontier bool    // no other row weakly dominates this one
}

// ParetoResult holds the sweep.
type ParetoResult struct {
	Rows    []ParetoRow
	InputGB float64
}

// Pareto sweeps the descent objective over paretoVariants: each variant
// places the same TeraSort on a fresh testbed copy (identical weather —
// link draws depend only on elapsed time) under oracle beliefs and
// uniform 8-connection pairs, then the objective vectors are marked for
// Pareto dominance.
func Pareto(p Params) (*ParetoResult, error) {
	p = p.withDefaults()
	res := &ParetoResult{InputGB: 10}
	job := workloads.TeraSort(workloads.UniformInput(8, 10e9))
	for _, spec := range paretoVariants {
		run, _, err := trial{p: p, seed: p.Seed, belief: beliefOracle, conns: connUniform, system: spec}.run(job)
		if err != nil {
			return nil, fmt.Errorf("pareto %s: %w", spec, err)
		}
		res.Rows = append(res.Rows, ParetoRow{
			Sched: spec,
			JCT:   run.JCTSeconds,
			USD:   run.Cost.Total(),
			KgCO2: run.Energy.KgCO2(),
		})
	}
	markFrontier(res.Rows)
	return res, nil
}

// markFrontier flags the non-dominated rows: row i is on the frontier
// unless some row j is no worse on all three objectives and strictly
// better on at least one.
func markFrontier(rows []ParetoRow) {
	for i := range rows {
		rows[i].Frontier = true
		for j := range rows {
			if i == j {
				continue
			}
			a, b := rows[j], rows[i]
			if a.JCT <= b.JCT && a.USD <= b.USD && a.KgCO2 <= b.KgCO2 &&
				(a.JCT < b.JCT || a.USD < b.USD || a.KgCO2 < b.KgCO2) {
				rows[i].Frontier = false
				break
			}
		}
	}
}

// String renders the JCT-vs-$-vs-kgCO2 frontier table.
func (r *ParetoResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pareto: descent-objective sweep on TeraSort (%.0f GB), 8-DC testbed, oracle beliefs\n", r.InputGB)
	fmt.Fprintf(&b, "%-40s%10s%10s%10s  %s\n", "scheduler", "JCT(s)", "cost($)", "kgCO2e", "frontier")
	for _, row := range r.Rows {
		mark := ""
		if row.Frontier {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-40s%10.1f%10.3f%10.3f  %s\n", row.Sched, row.JCT, row.USD, row.KgCO2, mark)
	}
	b.WriteString("(* = no other variant is at least as good on all of JCT, dollars and carbon)\n")
	return b.String()
}
