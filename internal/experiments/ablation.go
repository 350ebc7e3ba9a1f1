package experiments

// Extension experiments beyond the paper's figures: the model-choice
// ablation behind §3.1's design discussion, a sensitivity sweep over
// the two netsim design knobs DESIGN.md calls out (RTT-bias exponent
// and congestion knee), and the multi-cloud accuracy check §5.8.3
// mentions but omits for space.

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/ml/baseline"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

func init() {
	Registry["ablation-model"] = func(p Params) (Result, error) { return AblationModel(p) }
	Registry["ablation-netsim"] = func(p Params) (Result, error) { return AblationNetsim(p) }
	Registry["multicloud"] = func(p Params) (Result, error) { return MultiCloud(p) }
}

// --- model-choice ablation (§3.1) ---

// AblationModelRow scores one predictor.
type AblationModelRow struct {
	Model    string
	Accuracy float64 // fraction within 100 Mbps on held-out clusters
	RMSE     float64
	MAE      float64
}

// AblationModelResult compares the Random Forest against the simpler
// predictors §3.1 argues about, on held-out cluster sizes.
type AblationModelResult struct{ Rows []AblationModelRow }

// AblationModel trains every comparison model on the same sessions
// (cluster sizes 3/5/8) and evaluates on unseen sizes (4/6/7).
func AblationModel(p Params) (*AblationModelResult, error) {
	p = p.withDefaults()
	train, _ := dataset.Generate(dataset.GenConfig{Sizes: []int{3, 5, 8}, DrawsPerSize: 8, Seed: p.Seed})
	test, _ := dataset.Generate(dataset.GenConfig{Sizes: []int{4, 6, 7}, DrawsPerSize: 4, Seed: p.Seed + 1})

	models := []baseline.Regressor{
		baseline.Passthrough{},
		&baseline.LinearRegression{},
		&baseline.KNN{K: 7},
		&baseline.Forest{Config: rf.Config{NumTrees: 100, MaxFeatures: 4, Seed: p.Seed}},
	}
	res := &AblationModelResult{}
	for _, m := range models {
		if err := m.Fit(train); err != nil {
			return nil, fmt.Errorf("ablation-model %s: %w", m.Name(), err)
		}
		acc, rmse, mae := baseline.Evaluate(m, test, predict.SignificantMbps)
		res.Rows = append(res.Rows, AblationModelRow{Model: m.Name(), Accuracy: acc, RMSE: rmse, MAE: mae})
	}
	return res, nil
}

// String renders the comparison.
func (r *AblationModelResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: prediction model choice (held-out cluster sizes 4/6/7)\n")
	fmt.Fprintf(&b, "%-24s%12s%10s%10s\n", "model", "acc@100Mbps", "RMSE", "MAE")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s%12.3f%10.1f%10.1f\n", row.Model, row.Accuracy, row.RMSE, row.MAE)
	}
	fmt.Fprintln(&b, paperText("ablation-model", "RF lowest RMSE"))
	return b.String()
}

// --- netsim design-knob sensitivity ---

// AblationNetsimRow is one knob setting's outcome on the two phenomena
// the knob exists to produce.
type AblationNetsimRow struct {
	Knob     string
	Value    float64
	UniformX float64 // uniform-8 min BW / single-conn min BW (Fig 2b)
	HetX     float64 // heterogeneous min BW / single-conn min BW (Fig 2c)
}

// AblationNetsimResult sweeps RTTBiasExp and CongestionKnee.
type AblationNetsimResult struct{ Rows []AblationNetsimRow }

// AblationNetsim re-runs the Fig. 2 probe pattern under swept simulator
// knobs, showing which design choices the paper's phenomena depend on:
// without the RTT bias, uniform parallelism would (wrongly) fix weak
// links; without the congestion knee, unbounded parallelism would be
// free.
func AblationNetsim(p Params) (*AblationNetsimResult, error) {
	p = p.withDefaults()
	res := &AblationNetsimResult{}
	run := func(knob string, value float64, mutate func(*netsim.Config)) {
		regions := []geo.Region{geo.USEast, geo.USWest, geo.APSE}
		cfg := netsim.UniformCluster(regions, substrate.T3Nano, p.Seed)
		cfg.Frozen = true
		mutate(&cfg)
		sim := netsim.NewSim(cfg)
		minBW := func(conns func(i, j int) int) float64 {
			var flows []substrate.Flow
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if i != j {
						flows = append(flows, sim.StartProbe(sim.FirstVMOfDC(i), sim.FirstVMOfDC(j), conns(i, j)))
					}
				}
			}
			sim.RunFor(8)
			min := -1.0
			for _, f := range flows {
				if r := f.Rate(); min < 0 || r < min {
					min = r
				}
			}
			for _, f := range flows {
				f.Stop()
			}
			return min
		}
		single := minBW(func(i, j int) int { return 1 })
		uniform := minBW(func(i, j int) int { return 8 })
		het := minBW(func(i, j int) int {
			if i == 2 || j == 2 {
				return 11
			}
			return 2
		})
		res.Rows = append(res.Rows, AblationNetsimRow{
			Knob: knob, Value: value,
			UniformX: uniform / nonZero(single),
			HetX:     het / nonZero(single),
		})
	}

	for _, exp := range []float64{0.5, 1.0, 1.5, 2.0} {
		e := exp
		run("rtt-bias-exp", e, func(c *netsim.Config) { c.RTTBiasExp = e })
	}
	for _, knee := range []int{8, 16, 32, 64} {
		k := knee
		run("congestion-knee", float64(k), func(c *netsim.Config) { c.CongestionKnee = k })
	}
	return res, nil
}

// String renders the sweep.
func (r *AblationNetsimResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: netsim design knobs (3-DC Fig. 2 probe pattern)\n")
	fmt.Fprintf(&b, "%-18s%8s%18s%18s\n", "knob", "value", "uniform-8 minBW x", "heterogeneous x")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s%8.1f%18.2f%18.2f\n", row.Knob, row.Value, row.UniformX, row.HetX)
	}
	b.WriteString("(the paper's Fig 2 shape needs uniform~1x and heterogeneous ~2x:\n")
	b.WriteString(" a weak RTT bias makes uniform parallelism look useful, contradicting §2.2)\n")
	return b.String()
}

// --- multi-cloud accuracy (§5.8.3, omitted in the paper for space) ---

// MultiCloudResult compares static vs predicted accuracy on a mixed
// AWS + GCP cluster with a provider refactoring vector.
type MultiCloudResult struct {
	StaticSig    int
	PredictedSig int
	Pairs        int
	RVecSample   float64 // the AWS-GCP cross factor used
}

// MultiCloud replaces three regions' VMs with GCP e2-medium instances,
// applies the provider rvec, and repeats the Fig. 11(a) accuracy
// comparison.
func MultiCloud(p Params) (*MultiCloudResult, error) {
	p = p.withDefaults()
	model, err := sharedModel(p)
	if err != nil {
		return nil, err
	}
	regions := geo.Testbed()
	gcp := map[int]bool{1: true, 4: true, 6: true} // US West, AP SE-2, EU West on GCP
	vms := make([][]substrate.VMSpec, len(regions))
	providers := make([]string, len(regions))
	for i := range vms {
		if gcp[i] {
			vms[i] = []substrate.VMSpec{substrate.E2Medium}
			regions[i].Provider = "gcp"
		} else {
			vms[i] = []substrate.VMSpec{substrate.T2Medium}
		}
		providers[i] = regions[i].Provider
	}
	sim := netsim.NewSim(netsim.Config{Regions: regions, VMs: vms, Seed: p.Seed + 77})

	static, _ := measure.StaticIndependent(sim, measure.Options{DurationS: 8})
	sim.RunUntil(queryStart - 21)
	feats, _ := dataset.SnapshotFeatures(sim, simrand.Derive(p.Seed, "multicloud"))
	pred := model.PredictMatrix(feats)
	// Apply the provider refactoring vector: GCP e2-medium sustains a
	// slightly lower WAN share than t2.medium in this calibration.
	rvec := optimize.RefactorFromProviders(providers, map[string]float64{"aws": 1.0, "gcp": 0.95})
	for i := range pred {
		for j := range pred[i] {
			pred[i][j] *= rvec[i][j]
		}
	}
	actual, _ := measure.StaticSimultaneous(sim, measure.StableOptions())

	return &MultiCloudResult{
		StaticSig:    static.AbsDiff(actual).CountOffDiagAbove(100),
		PredictedSig: pred.AbsDiff(actual).CountOffDiagAbove(100),
		Pairs:        sim.NumDCs() * (sim.NumDCs() - 1),
		RVecSample:   rvec[0][1],
	}, nil
}

// String renders the comparison.
func (r *MultiCloudResult) String() string {
	var b strings.Builder
	b.WriteString("Multi-cloud (AWS + GCP) accuracy check (§5.8.3, omitted in the paper)\n")
	fmt.Fprintf(&b, "significant (>100 Mbps) errors vs runtime, %d ordered pairs:\n", r.Pairs)
	fmt.Fprintf(&b, "  static-independent: %d\n  predicted (with rvec %.3f on cross-provider pairs): %d\n",
		r.StaticSig, r.RVecSample, r.PredictedSig)
	fmt.Fprintln(&b, paperText("multicloud", "predicted beats static"))
	return b.String()
}
