package experiments

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/stats"
	"github.com/wanify/wanify/internal/substrate"
)

// --- Fig. 1: the 8-DC single-connection bandwidth map ---

// Fig1Result is the measured static-independent matrix over the
// 8-region testbed, with the paper's two anchors called out.
type Fig1Result struct {
	Regions []geo.Region
	BW      bwmatrix.Matrix
}

// Fig1 measures the Fig. 1 topology: single-connection iPerf between
// each DC pair, one at a time.
func Fig1(p Params) (*Fig1Result, error) {
	p = p.withDefaults()
	sim, err := testbedCluster(p, 8, p.Seed)
	if err != nil {
		return nil, err
	}
	m, _ := measure.StaticIndependent(sim, measure.Options{DurationS: 8})
	return &Fig1Result{Regions: sim.Regions(), BW: m}, nil
}

// String renders the matrix with region labels.
func (r *Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1: static-independent single-connection BWs (Mbps)\n")
	fmt.Fprintf(&b, "%-10s", "")
	for _, reg := range r.Regions {
		fmt.Fprintf(&b, "%9s", abbrev(reg.Name))
	}
	b.WriteByte('\n')
	for i, reg := range r.Regions {
		fmt.Fprintf(&b, "%-10s", abbrev(reg.Name))
		for j := range r.Regions {
			fmt.Fprintf(&b, "%9.0f", r.BW[i][j])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "anchors: US East->US West = %.0f %s, US East->AP SE = %.0f %s\n",
		r.BW[0][1], paperText("fig1", "US East→US West (Mbps)"), r.BW[0][3], paperText("fig1", "US East→AP SE (Mbps)"))
	return b.String()
}

func abbrev(name string) string {
	r := strings.NewReplacer("US East", "USE", "US West", "USW", "AP South", "APS",
		"AP SE-2", "APSE2", "AP SE", "APSE", "AP NE", "APNE", "EU West", "EUW", "SA East", "SAE")
	return r.Replace(name)
}

// --- Table 1: gaps between static and runtime BWs ---

// Table1Result buckets the significant static-vs-runtime differences
// the way Table 1 does.
type Table1Result struct {
	Buckets     []stats.Bucket
	Significant int
	Pairs       int
	// SlowestFromSAEStatic and SlowestFromSAERuntime name the DC with
	// the weakest link from SA East under each measurement — the
	// paper's example of a changed decision input (§2.2: AP SE
	// statically, EU West at runtime).
	SlowestFromSAEStatic, SlowestFromSAERuntime string
}

// Table1 measures every unordered DC pair statically+independently,
// then all pairs simultaneously, and buckets the absolute differences
// at the paper's boundaries (100, 200], (200, 250], > 250 Mbps.
func Table1(p Params) (*Table1Result, error) {
	p = p.withDefaults()
	sim, err := testbedCluster(p, 8, p.Seed)
	if err != nil {
		return nil, err
	}
	static, _ := measure.StaticIndependent(sim, measure.Options{DurationS: 8})
	sim.RunUntil(queryStart - 20)
	runtime, _ := measure.StaticSimultaneous(sim, measure.StableOptions())

	// The paper measures one number per DC pair; fold directions.
	staticSym := static.Symmetrize()
	runtimeSym := runtime.Symmetrize()
	var diffs []float64
	n := staticSym.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := staticSym[i][j] - runtimeSym[i][j]
			if d < 0 {
				d = -d
			}
			diffs = append(diffs, d)
		}
	}
	res := &Table1Result{
		Buckets: stats.BucketCounts(diffs, []float64{100, 200, 250}),
		Pairs:   len(diffs),
	}
	for _, b := range res.Buckets {
		res.Significant += b.Count
	}
	// Slowest-DC-from-SA-East flip check (SA East is index 7).
	res.SlowestFromSAEStatic = slowestFrom(staticSym, 7, sim.Regions())
	res.SlowestFromSAERuntime = slowestFrom(runtimeSym, 7, sim.Regions())
	return res, nil
}

func slowestFrom(m bwmatrix.Matrix, src int, regions []geo.Region) string {
	best, bestBW := -1, 0.0
	for j := range regions {
		if j == src {
			continue
		}
		if best < 0 || m[src][j] < bestBW {
			best, bestBW = j, m[src][j]
		}
	}
	return regions[best].Name
}

// String renders Table 1.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: gaps between static and runtime BWs (Mbps), %d DC pairs\n", r.Pairs)
	fmt.Fprintf(&b, "%-22s", "Difference Interval")
	for _, bk := range r.Buckets {
		if bk.Hi > 1e9 {
			fmt.Fprintf(&b, "%12s", fmt.Sprintf("> %.0f", bk.Lo))
		} else {
			fmt.Fprintf(&b, "%12s", fmt.Sprintf("(%.0f, %.0f]", bk.Lo, bk.Hi))
		}
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s", "Count")
	for _, bk := range r.Buckets {
		fmt.Fprintf(&b, "%12d", bk.Count)
	}
	fmt.Fprintf(&b, "\ntotal significant: %d %s\n", r.Significant, paperText("table1", "significant gaps"))
	fmt.Fprintf(&b, "slowest DC from SA East: static=%s runtime=%s %s\n",
		r.SlowestFromSAEStatic, r.SlowestFromSAERuntime, paperText("table1", "slowest DC from SA East flips"))
	return b.String()
}

// --- Table 2: monitoring cost vs prediction cost ---

// Table2Row is one cluster size's annual costs.
type Table2Row struct {
	N                 int
	RuntimeMonitoring float64
	ModelTraining     float64
	Predictions       float64
}

// Table2Result reproduces the cost table.
type Table2Result struct {
	Rows    []Table2Row
	Savings float64 // fraction saved by prediction overall
}

// Table2 evaluates Eq. 1 and the session-based training/prediction cost
// model for 4, 6 and 8 DCs.
func Table2(_ Params) (*Table2Result, error) {
	r := rates
	res := &Table2Result{}
	var mon, pred float64
	for _, n := range []int{4, 6, 8} {
		row := Table2Row{
			N:                 n,
			RuntimeMonitoring: cost.RuntimeMonitoringAnnualUSD(cost.DefaultMonitoringParams(n), r),
			ModelTraining:     cost.TrainingCostUSD(cost.DefaultTrainingParams(n)),
			Predictions:       cost.PredictionCostUSD(cost.DefaultPredictionParams(n)),
		}
		mon += row.RuntimeMonitoring
		pred += row.ModelTraining + row.Predictions
		res.Rows = append(res.Rows, row)
	}
	res.Savings = 1 - pred/mon
	return res, nil
}

// String renders Table 2.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: accurate prediction saves ~%.0f%% in costs %s\n", r.Savings*100, paperText("table2", "prediction saving (%)"))
	fmt.Fprintf(&b, "%-16s%-22s%-18s%-14s\n", "Number of DCs", "Runtime Monitoring", "Model Training", "Predictions")
	var tm, tt, tp float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16d$%-21.0f$%-17.0f$%-13.0f\n", row.N, row.RuntimeMonitoring, row.ModelTraining, row.Predictions)
		tm += row.RuntimeMonitoring
		tt += row.ModelTraining
		tp += row.Predictions
	}
	fmt.Fprintf(&b, "%-16s$%-21.0f$%-17.0f$%-13.0f\n", "Total", tm, tt, tp)
	fmt.Fprintln(&b, paperText("table2", "8-DC monitoring ($/yr)"))
	return b.String()
}

// --- Fig. 2: single vs uniform vs heterogeneous connections ---

// Fig2Result compares the three connection strategies on the 3-DC
// monitoring cluster and prices a reduce-stage data plan (Fig. 2(d)).
type Fig2Result struct {
	Regions              []geo.Region
	Single, Uniform, Het bwmatrix.Matrix
	HetConns             bwmatrix.ConnMatrix
	// MinBW per strategy, and the Fig 2(d) bottleneck network times.
	MinSingle, MinUniform, MinHet float64
	LatSingle, LatUniform, LatHet float64
}

// Fig2 runs the §2.2 heterogeneous-connections motivation: three DCs
// (two nearby, one distant) probed with 1 connection, uniform 8, and an
// optimizer-derived heterogeneous assignment with the same total budget.
func Fig2(p Params) (*Fig2Result, error) {
	p = p.withDefaults()
	regions := []geo.Region{geo.USEast, geo.USWest, geo.APSE}
	cfg := netsim.UniformCluster(regions, substrate.T3Nano, p.Seed)
	sim := netsim.NewSim(cfg)
	res := &Fig2Result{Regions: regions}

	probeAll := func(conns func(i, j int) int) bwmatrix.Matrix {
		type pf struct {
			i, j int
			f    substrate.Flow
			b0   float64
		}
		var probes []pf
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i != j {
					f := sim.StartProbe(sim.FirstVMOfDC(i), sim.FirstVMOfDC(j), conns(i, j))
					probes = append(probes, pf{i, j, f, f.TransferredBytes()})
				}
			}
		}
		const dur = 10.0
		sim.RunFor(dur)
		m := bwmatrix.New(3)
		for _, pr := range probes {
			m[pr.i][pr.j] = (pr.f.TransferredBytes() - pr.b0) * 8 / 1e6 / dur
			pr.f.Stop()
		}
		return m
	}

	res.Single = probeAll(func(i, j int) int { return 1 })
	res.Uniform = probeAll(func(i, j int) int { return 8 })

	// Heterogeneous counts: the paper notes Fig. 2(c)'s connections were
	// "found manually for illustration" under the same total budget
	// (8×6). The manual rule it illustrates — faraway DCs get higher
	// precedence — is reproduced by allocating the budget inversely
	// proportional to each link's measured single-connection bandwidth.
	conns := inverseBWConns(res.Single, 8*6)
	res.HetConns = conns
	res.Het = probeAll(func(i, j int) int { return conns[i][j] })

	res.MinSingle = res.Single.MinOffDiagonal()
	res.MinUniform = res.Uniform.MinOffDiagonal()
	res.MinHet = res.Het.MinOffDiagonal()

	// Fig 2(d): a reduce stage exchanging less data with the distant DC
	// (sizes in Gigabit, as in the paper). Bottleneck link time decides
	// the stage's network latency.
	plan2d := [][]float64{ // Gb from i to j
		{0, 5, 1.5},
		{5, 0, 1.5},
		{1.5, 1.5, 0},
	}
	latency := func(bw bwmatrix.Matrix) float64 {
		worst := 0.0
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i == j || plan2d[i][j] == 0 {
					continue
				}
				if bw[i][j] <= 0 {
					continue
				}
				t := plan2d[i][j] * 1000 / bw[i][j] // Gb -> Mb over Mbps
				if t > worst {
					worst = t
				}
			}
		}
		return worst
	}
	res.LatSingle = latency(res.Single)
	res.LatUniform = latency(res.Uniform)
	res.LatHet = latency(res.Het)
	return res, nil
}

// inverseBWConns distributes a total connection budget across links
// inversely proportional to their measured bandwidth: the weakest links
// get the most connections (minimum 1 per link).
func inverseBWConns(bw bwmatrix.Matrix, budget int) bwmatrix.ConnMatrix {
	n := bw.N()
	out := bwmatrix.NewConnFilled(n, 1)
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && bw[i][j] > 0 {
				sum += 1 / bw[i][j]
			}
		}
	}
	if sum <= 0 {
		return out
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || bw[i][j] <= 0 {
				continue
			}
			v := int(float64(budget) * (1 / bw[i][j]) / sum)
			if v < 1 {
				v = 1
			}
			out[i][j] = v
		}
	}
	return out
}

// String renders the four panels.
func (r *Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: connection strategies on 3 DCs (%s, %s, %s)\n",
		r.Regions[0].Name, r.Regions[1].Name, r.Regions[2].Name)
	fmt.Fprintf(&b, "(a) single connection BWs (Mbps):\n%s", r.Single)
	fmt.Fprintf(&b, "(b) uniform 8-connection BWs:\n%s", r.Uniform)
	fmt.Fprintf(&b, "(c) heterogeneous connections:\n%s achieved BWs:\n%s", r.HetConns, r.Het)
	fmt.Fprintf(&b, "min BW: single=%.1f uniform=%.1f heterogeneous=%.1f (%.1fx over uniform; %s)\n",
		r.MinSingle, r.MinUniform, r.MinHet, r.MinHet/nonZero(r.MinUniform), paperText("fig2", "heterogeneous ÷ uniform min BW (×)"))
	fmt.Fprintf(&b, "(d) bottleneck network time for the reduce plan: single=%.1fs uniform=%.1fs heterogeneous=%.1fs\n",
		r.LatSingle, r.LatUniform, r.LatHet)
	return b.String()
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
