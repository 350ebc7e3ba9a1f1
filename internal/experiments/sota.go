package experiments

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/workloads"
)

// queryTrial is the TPC-DS trial of system on query q that Figs. 7
// and 8 and Table 4 compare, labelled system(variant) in reports.
func queryTrial(p Params, system string, q int, variant string) trial {
	return trial{p: p, seed: p.Seed + uint64(q)*13, system: system, label: system + "(" + variant + ")"}
}

// --- Fig. 7: state-of-the-art systems with/without WANify ---

// Fig7Row is one query × system comparison.
type Fig7Row struct {
	System                  string
	Query                   int
	VanillaJCT, WANifyJCT   float64
	VanillaCost, WANifyCost float64
	MinBWRatio              float64
}

// Fig7Result holds the grid.
type Fig7Result struct {
	Rows    []Fig7Row
	InputGB float64
}

// Fig7 compares Tetrium and Kimchi on TPC-DS with and without WANify
// (predicted BWs + heterogeneous parallel connections + throttling).
func Fig7(p Params) (*Fig7Result, error) {
	p = p.withDefaults()
	input := workloads.UniformInput(8, 100e9)
	res := &Fig7Result{InputGB: 100}
	for _, system := range []string{"tetrium", "kimchi"} {
		for _, q := range workloads.TPCDSQueries() {
			job, err := workloads.TPCDS(q, input)
			if err != nil {
				return nil, err
			}
			vt, wt := queryTrial(p, system, q, "vanilla"), queryTrial(p, system, q, "wanify")
			vt.belief = beliefStaticIndependent
			wt.belief, wt.conns = beliefWANify, connTC
			van, _, err := vt.run(job)
			if err != nil {
				return nil, err
			}
			wan, _, err := wt.run(job)
			if err != nil {
				return nil, err
			}
			row := Fig7Row{
				System: system, Query: q,
				VanillaJCT: van.JCTSeconds, WANifyJCT: wan.JCTSeconds,
				VanillaCost: van.Cost.Total(), WANifyCost: wan.Cost.Total(),
			}
			if van.MinShuffleMbps > 0 {
				row.MinBWRatio = wan.MinShuffleMbps / van.MinShuffleMbps
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// String renders Fig. 7's latency and cost panels.
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7: Tetrium/Kimchi on TPC-DS (%.0f GB) with and without WANify\n", r.InputGB)
	fmt.Fprintf(&b, "%-10s%-7s%14s%14s%10s%10s%12s%10s\n",
		"system", "query", "vanilla(s)", "wanify(s)", "gain(%)", "van($)", "wanify($)", "minBW x")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s%-7d%14.1f%14.1f%10.1f%10.3f%12.3f%10.2f\n",
			row.System, row.Query, row.VanillaJCT, row.WANifyJCT,
			pct(row.VanillaJCT, row.WANifyJCT), row.VanillaCost, row.WANifyCost, row.MinBWRatio)
	}
	fmt.Fprintln(&b, paperText("fig7", "Tetrium best latency gain (%)"))
	return b.String()
}

// --- Fig. 8(a): ablation of global and local optimization ---

// Fig8aRow is one variant of the ablation.
type Fig8aRow struct {
	Variant    string
	System     string
	JCT        float64
	GainPct    float64 // vs vanilla
	MinBWRatio float64 // vs vanilla
}

// Fig8aResult is the §5.5 ablation on query 78.
type Fig8aResult struct{ Rows []Fig8aRow }

// Fig8a runs query 78 under Vanilla / Global-only / Local-only / full
// WANify for both systems.
func Fig8a(p Params) (*Fig8aResult, error) {
	p = p.withDefaults()
	const query = 78
	job, err := workloads.TPCDS(query, workloads.UniformInput(8, 100e9))
	if err != nil {
		return nil, err
	}
	res := &Fig8aResult{}
	for _, system := range []string{"tetrium", "kimchi"} {
		vt := queryTrial(p, system, query, "vanilla")
		vt.belief = beliefStaticIndependent
		van, _, err := vt.run(job)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig8aRow{Variant: "vanilla", System: system, JCT: van.JCTSeconds, MinBWRatio: 1})
		for _, v := range []struct {
			name   string
			belief beliefKind
			conns  connKind
		}{
			{"global-only", beliefPredicted, connGlobalOnly},
			{"local-only", beliefPredicted, connLocalOnly},
			{"wanify", beliefWANify, connTC},
		} {
			t := queryTrial(p, system, query, v.name)
			t.belief, t.conns, t.rng = v.belief, v.conns, "ablation-snapshot"
			run, _, err := t.run(job)
			if err != nil {
				return nil, fmt.Errorf("fig8a %s/%s: %w", system, v.name, err)
			}
			row := Fig8aRow{Variant: v.name, System: system, JCT: run.JCTSeconds,
				GainPct: pct(van.JCTSeconds, run.JCTSeconds)}
			if van.MinShuffleMbps > 0 {
				row.MinBWRatio = run.MinShuffleMbps / van.MinShuffleMbps
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// String renders the ablation.
func (r *Fig8aResult) String() string {
	var b strings.Builder
	b.WriteString("Fig 8(a): ablation on TPC-DS query 78\n")
	fmt.Fprintf(&b, "%-14s%-10s%12s%10s%10s\n", "variant", "system", "JCT(s)", "gain(%)", "minBW x")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s%-10s%12.1f%10.1f%10.2f\n", row.Variant, row.System, row.JCT, row.GainPct, row.MinBWRatio)
	}
	fmt.Fprintln(&b, paperText("fig8a", "Tetrium global-only gain (%)"))
	return b.String()
}

// --- Fig. 8(b): impact of prediction error ---

// Fig8bResult compares WANify with WANify-err (±100 Mbps random error
// injected into predictions).
type Fig8bResult struct {
	System                string
	WANifyJCT, ErrJCT     float64
	WANifyCost, ErrCost   float64
	WANifyMinBW, ErrMinBW float64
}

// Fig8b injects significant (±100 Mbps) random errors into the
// predicted BWs and measures the damage on query 78.
func Fig8b(p Params) (*Fig8bResult, error) {
	p = p.withDefaults()
	const query = 78
	job, err := workloads.TPCDS(query, workloads.UniformInput(8, 100e9))
	if err != nil {
		return nil, err
	}
	t := queryTrial(p, "tetrium", query, "wanify")
	t.belief, t.conns = beliefWANify, connTC
	good, _, err := t.run(job)
	if err != nil {
		return nil, err
	}
	rng := simrand.Derive(p.Seed, "fig8b-error")
	t.perturb = func(m bwmatrix.Matrix) bwmatrix.Matrix {
		out := m.Clone()
		for i := range out {
			for j := range out[i] {
				if i == j {
					continue
				}
				if rng.Bool(0.5) {
					out[i][j] += 100
				} else {
					out[i][j] -= 100
					if out[i][j] < 10 {
						out[i][j] = 10
					}
				}
			}
		}
		return out
	}
	bad, _, err := t.run(job)
	if err != nil {
		return nil, err
	}
	return &Fig8bResult{
		System:    "tetrium",
		WANifyJCT: good.JCTSeconds, ErrJCT: bad.JCTSeconds,
		WANifyCost: good.Cost.Total(), ErrCost: bad.Cost.Total(),
		WANifyMinBW: good.MinShuffleMbps, ErrMinBW: bad.MinShuffleMbps,
	}, nil
}

// String renders the comparison.
func (r *Fig8bResult) String() string {
	var b strings.Builder
	b.WriteString("Fig 8(b): impact of ±100 Mbps prediction error (query 78)\n")
	fmt.Fprintf(&b, "%-12s%12s%12s%14s\n", "variant", "JCT(s)", "cost($)", "min BW(Mbps)")
	fmt.Fprintf(&b, "%-12s%12.1f%12.3f%14.0f\n", "wanify", r.WANifyJCT, r.WANifyCost, r.WANifyMinBW)
	fmt.Fprintf(&b, "%-12s%12.1f%12.3f%14.0f\n", "wanify-err", r.ErrJCT, r.ErrCost, r.ErrMinBW)
	fmt.Fprintf(&b, "latency +%.1f%%, cost +%.1f%%, min BW %.0f%% of accurate %s\n",
		-pct(r.WANifyJCT, r.ErrJCT), -pct(r.WANifyCost, r.ErrCost), 100*r.ErrMinBW/nonZero(r.WANifyMinBW), paperText("fig8b", "latency change (%)"))
	return b.String()
}
