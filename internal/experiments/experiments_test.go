package experiments

import (
	"slices"
	"strings"
	"testing"
)

// TestRegistryComplete checks that every ledger row names a registered
// driver, that every extension is registered, and that every other
// registered driver — a paper artifact — has at least one ledger row.
func TestRegistryComplete(t *testing.T) {
	extensions := []string{ // DESIGN.md §3
		"ablation-model", "ablation-netsim", "multicloud",
		"rebalance", "rebalance-trace",
		"multijob", "multijob-trace",
		"failover", "chaos", "fleet",
		"serve", "pareto", "degrade",
	}
	inLedger := map[string]bool{}
	for _, c := range ledger {
		inLedger[c.id] = true
		if _, ok := Registry[c.id]; !ok {
			t.Errorf("ledger row %q names an unregistered experiment", c.id)
		}
	}
	for _, id := range extensions {
		if _, ok := Registry[id]; !ok {
			t.Errorf("extension %q missing from registry", id)
		}
	}
	for _, id := range IDs() {
		if !inLedger[id] && !slices.Contains(extensions, id) {
			t.Errorf("paper artifact %q has no ledger row", id)
		}
	}
}

// TestFig1Anchors checks the topology anchors of the motivation.
func TestFig1Anchors(t *testing.T) {
	t.Parallel()
	r := result[*Fig1Result](t, "fig1", 1)
	if r.BW[0][1] < 1400 || r.BW[0][1] > 2100 {
		t.Errorf("US East->US West = %.0f, want ~1700", r.BW[0][1])
	}
	if r.BW[0][3] < 80 || r.BW[0][3] > 170 {
		t.Errorf("US East->AP SE = %.0f, want ~121", r.BW[0][3])
	}
	if !strings.Contains(r.String(), "anchors") {
		t.Error("rendering lacks the anchor line")
	}
}

// TestTable1Shape checks significant static-vs-runtime gaps exist.
func TestTable1Shape(t *testing.T) {
	t.Parallel()
	r := result[*Table1Result](t, "table1", 1)
	if r.Pairs != 28 {
		t.Errorf("%d pairs, want 28", r.Pairs)
	}
	if r.Significant < 4 {
		t.Errorf("only %d significant gaps (paper: 18)", r.Significant)
	}
	if len(r.Buckets) != 3 {
		t.Errorf("%d buckets", len(r.Buckets))
	}
}

// TestTable2Reproduction checks the monitoring-cost table against the
// paper's figures.
func TestTable2Reproduction(t *testing.T) {
	t.Parallel()
	r := result[*Table2Result](t, "table2", 1)
	if r.Savings < 0.90 {
		t.Errorf("savings %.2f, want >= 0.90 (paper ~0.96)", r.Savings)
	}
	wantMon := map[int]float64{4: 703, 6: 1055, 8: 1406}
	for _, row := range r.Rows {
		if w := wantMon[row.N]; row.RuntimeMonitoring < w*0.95 || row.RuntimeMonitoring > w*1.05 {
			t.Errorf("monitoring N=%d: $%.0f, want ~$%.0f", row.N, row.RuntimeMonitoring, w)
		}
		if row.ModelTraining+row.Predictions >= row.RuntimeMonitoring {
			t.Errorf("prediction not cheaper at N=%d", row.N)
		}
	}
}

// TestFig2HeterogeneousWins checks the §2.2 motivation experiment: the
// heterogeneous assignment beats uniform on min BW and bottleneck time,
// trading max BW down.
func TestFig2HeterogeneousWins(t *testing.T) {
	t.Parallel()
	r := result[*Fig2Result](t, "fig2", 1)
	if r.MinHet < 1.6*r.MinUniform {
		t.Errorf("het min %.0f < 1.6x uniform min %.0f (paper 2.1x)", r.MinHet, r.MinUniform)
	}
	if r.Het.MaxOffDiagonal() >= r.Single.MaxOffDiagonal() {
		t.Error("heterogeneous did not trade the strong link down")
	}
	if r.LatHet >= r.LatSingle || r.LatHet >= r.LatUniform {
		t.Errorf("het bottleneck %.1fs not best (single %.1f, uniform %.1f)", r.LatHet, r.LatSingle, r.LatUniform)
	}
	// The budget is preserved (8 conns x 6 links, small rounding slack).
	if got := r.HetConns.TotalOffDiagonal(); got < 40 || got > 8*6 {
		t.Errorf("het budget %d, want <= 48", got)
	}
}

// TestTable4RuntimeBeliefsHelp checks the headline of §5.2: runtime
// (simultaneous or predicted) beliefs never hurt much and help the
// heavy query clearly.
func TestTable4RuntimeBeliefsHelp(t *testing.T) {
	t.Parallel()
	r := result[*Table4Result](t, "table4", 1)
	cell := r.Cells["tetrium"][beliefPredicted.String()][78]
	if cell.PerfPct < 1 {
		t.Errorf("tetrium q78 predicted gain %.1f%%, want clearly positive (paper 14%%)", cell.PerfPct)
	}
	if r.MonitoringPredictedUSD >= r.MonitoringSimultaneousUSD {
		t.Error("snapshot monitoring should be much cheaper than 20s simultaneous")
	}
}

// TestFig5Ordering checks §5.3.1: WANify-TC/Dynamic beat the vanilla
// single-connection baseline on latency and min BW, and beat uniform
// parallelism on min BW.
func TestFig5Ordering(t *testing.T) {
	t.Parallel()
	r := result[*Fig5Result](t, "fig5", 1)
	rows := map[pdtVariant]Fig5Row{}
	for _, row := range r.Rows {
		rows[row.Variant] = row
	}
	if rows[variantThrottle].JCTMin >= rows[variantVanilla].JCTMin {
		t.Errorf("WANify-TC %.2fm not faster than vanilla %.2fm", rows[variantThrottle].JCTMin, rows[variantVanilla].JCTMin)
	}
	if rows[variantThrottle].MinBWMbps <= rows[variantVanilla].MinBWMbps {
		t.Error("WANify-TC min BW not above vanilla")
	}
	if rows[variantDynamic].MinBWMbps <= rows[variantUniform].MinBWMbps {
		t.Error("heterogeneous AIMD min BW not above uniform parallelism")
	}
}

// TestFig6GainsGrowWithShuffle checks §5.3.2's trend.
func TestFig6GainsGrowWithShuffle(t *testing.T) {
	t.Parallel()
	r := result[*Fig6Result](t, "fig6", 1)
	if len(r.Rows) < 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	last := r.Rows[len(r.Rows)-1]
	if last.WANifyJCT >= last.VanillaJCT {
		t.Errorf("no gain at the largest shuffle: %.1f vs %.1f", last.WANifyJCT, last.VanillaJCT)
	}
	if last.WANifyMinBW <= last.VanillaMinBW {
		t.Error("min BW not improved at the largest shuffle")
	}
}

// TestFig7WANifyHelps checks §5.4's headline on the heavy query.
func TestFig7WANifyHelps(t *testing.T) {
	t.Parallel()
	r := result[*Fig7Result](t, "fig7", 1)
	for _, row := range r.Rows {
		if row.Query != 78 {
			continue
		}
		gain := pct(row.VanillaJCT, row.WANifyJCT)
		if gain < 5 {
			t.Errorf("%s q78 gain %.1f%%, want clearly positive (paper up to 24%%)", row.System, gain)
		}
	}
}

// TestFig8aFullBeatsVanilla checks the ablation's envelope: every
// WANify variant beats vanilla on the heavy query.
func TestFig8aFullBeatsVanilla(t *testing.T) {
	t.Parallel()
	r := result[*Fig8aResult](t, "fig8a", 1)
	for _, row := range r.Rows {
		if row.System != "tetrium" || row.Variant == "vanilla" {
			continue
		}
		if row.GainPct <= 0 {
			t.Errorf("tetrium %s gain %.1f%%, want positive", row.Variant, row.GainPct)
		}
	}
}

// TestFig9TracksAndCounts checks the dynamics experiment produces
// epochs and flags significant deltas under injected error.
func TestFig9TracksAndCounts(t *testing.T) {
	t.Parallel()
	r := result[*Fig9Result](t, "fig9", 1)
	if len(r.Epochs) < 3 {
		t.Fatalf("only %d epochs", len(r.Epochs))
	}
	if r.SigDeltasWithErr == 0 {
		t.Error("20% injected error produced no significant deltas (paper: 6)")
	}
}

// TestFig11aPredictionBeatsStatic checks the accuracy comparison at the
// full cluster size.
func TestFig11aPredictionBeatsStatic(t *testing.T) {
	t.Parallel()
	r := result[*Fig11aResult](t, "fig11a", 1)
	last := r.Rows[len(r.Rows)-1] // N=8
	if last.PredictedSig >= last.StaticSig {
		t.Errorf("N=8: predicted %d significant errors vs static %d — prediction should win", last.PredictedSig, last.StaticSig)
	}
}

// TestFig11bAssociationBeatsStatic checks the multi-VM accuracy path.
func TestFig11bAssociationBeatsStatic(t *testing.T) {
	t.Parallel()
	r := result[*Fig11bResult](t, "fig11b", 1)
	wins := 0
	for _, row := range r.Rows {
		if row.PredictedSig < row.StaticSig {
			wins++
		}
	}
	if wins < len(r.Rows)-1 {
		t.Errorf("prediction won only %d/%d configurations", wins, len(r.Rows))
	}
}

// TestFig4Ordering checks the §5.6 variant ranking on cost: quantized
// variants beat NoQ, and WANify-enabled quantization is the cheapest.
func TestFig4Ordering(t *testing.T) {
	t.Parallel()
	r := result[*Fig4Result](t, "fig4", 1)
	byName := map[string]Fig4Row{}
	for _, row := range r.Rows {
		byName[row.Variant] = row
	}
	if byName["SAGQ"].TrainMin >= byName["NoQ"].TrainMin {
		t.Error("SAGQ not faster than NoQ")
	}
	if byName["WQ"].CostUSD > byName["SAGQ"].CostUSD {
		t.Error("WQ not cheaper than SAGQ")
	}
	if byName["WQ"].MinBWMbps <= byName["SAGQ"].MinBWMbps {
		t.Error("WQ min BW not above SAGQ")
	}
}

// TestAblationModelRFCompetitive checks the model-choice extension: the
// Random Forest achieves the best (or tied-best) RMSE on held-out
// cluster sizes.
func TestAblationModelRFCompetitive(t *testing.T) {
	t.Parallel()
	r := result[*AblationModelResult](t, "ablation-model", 1)
	var rf, bestOther AblationModelRow
	bestOther.RMSE = 1e18
	for _, row := range r.Rows {
		if row.Model == "random-forest" {
			rf = row
		} else if row.RMSE < bestOther.RMSE {
			bestOther = row
		}
	}
	if rf.Accuracy < 0.9 {
		t.Errorf("RF held-out accuracy %.3f", rf.Accuracy)
	}
	if rf.RMSE > bestOther.RMSE*1.1 {
		t.Errorf("RF RMSE %.1f clearly worse than best baseline %.1f (%s)", rf.RMSE, bestOther.RMSE, bestOther.Model)
	}
}

// TestAblationNetsimShape checks the knob sweep reproduces the design
// argument: at the shipped RTT-bias exponent (1.5), uniform parallelism
// gives the weak link little-to-nothing while the heterogeneous budget
// roughly doubles it; at a weak exponent (0.5) uniform parallelism
// would look useful, contradicting the paper.
func TestAblationNetsimShape(t *testing.T) {
	t.Parallel()
	r := result[*AblationNetsimResult](t, "ablation-netsim", 1)
	byKnob := map[string]map[float64]AblationNetsimRow{}
	for _, row := range r.Rows {
		if byKnob[row.Knob] == nil {
			byKnob[row.Knob] = map[float64]AblationNetsimRow{}
		}
		byKnob[row.Knob][row.Value] = row
	}
	shipped := byKnob["rtt-bias-exp"][1.5]
	if shipped.UniformX > 1.2 {
		t.Errorf("at exp=1.5 uniform-8 min BW ratio %.2f, want ~1 or below", shipped.UniformX)
	}
	if shipped.HetX < 1.6 {
		t.Errorf("at exp=1.5 heterogeneous ratio %.2f, want ~2x", shipped.HetX)
	}
	weak := byKnob["rtt-bias-exp"][0.5]
	if weak.UniformX <= shipped.UniformX {
		t.Error("a weaker RTT bias should make uniform parallelism look better")
	}
}

// TestMultiCloudPredictionWins checks the §5.8.3 extension.
func TestMultiCloudPredictionWins(t *testing.T) {
	t.Parallel()
	r := result[*MultiCloudResult](t, "multicloud", 1)
	if r.PredictedSig >= r.StaticSig {
		t.Errorf("multi-cloud: predicted %d significant errors vs static %d", r.PredictedSig, r.StaticSig)
	}
}

// TestRebalanceImproves locks the runtime-controller acceptance
// property: under both episode scenarios the re-gauged run replans at
// least once and completes sooner than the static one-shot plan, while
// moving the same job bytes.
func TestRebalanceImproves(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"rebalance", "rebalance-trace"} {
		t.Run(id, func(t *testing.T) {
			r := result[*RebalanceResult](t, id, 1)
			if len(r.Rows) != 2 || r.Rows[0].Variant != "static" || r.Rows[1].Variant != "regauge" {
				t.Fatalf("unexpected rows: %+v", r.Rows)
			}
			static, regauge := r.Rows[0], r.Rows[1]
			if regauge.Replans < 1 {
				t.Errorf("controller never replanned during the episode")
			}
			if static.Replans != 0 || static.DriftEpochs != 0 {
				t.Errorf("static variant ran a controller: %+v", static)
			}
			if regauge.JCTSeconds >= static.JCTSeconds {
				t.Errorf("re-gauging did not improve JCT: %.1f vs %.1f",
					regauge.JCTSeconds, static.JCTSeconds)
			}
			if regauge.WANBytes != static.WANBytes {
				t.Errorf("variants moved different job bytes: %.0f vs %.0f",
					regauge.WANBytes, static.WANBytes)
			}
			if r.ImprovementPct <= 0 {
				t.Errorf("improvement %.1f%% not positive", r.ImprovementPct)
			}
		})
	}
}

// TestMultijobInvariants locks the multi-tenant acceptance properties
// on both drivers: every sharing variant moves exactly the same bytes
// per job (contention and partitioning shift time, never volume), the
// expected variants are present, and the fair partition never loses to
// the oversubscribed deployment on the netsim scenario.
func TestMultijobInvariants(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"multijob", "multijob-trace"} {
		t.Run(id, func(t *testing.T) {
			r := result[*MultijobResult](t, id, 1)
			if len(r.Variants) < 3 {
				t.Fatalf("only %d variants", len(r.Variants))
			}
			base := r.Variants[0] // solo
			if base.Name != "solo" {
				t.Fatalf("first variant %q, want solo", base.Name)
			}
			for _, v := range r.Variants[1:] {
				if len(v.Rows) != len(base.Rows) {
					t.Fatalf("%s has %d jobs, solo has %d", v.Name, len(v.Rows), len(base.Rows))
				}
				for i, row := range v.Rows {
					if row.WANBytes != base.Rows[i].WANBytes {
						t.Errorf("%s job %s moved %.0f bytes, solo moved %.0f (not conserved)",
							v.Name, row.Job, row.WANBytes, base.Rows[i].WANBytes)
					}
					if row.JCTSeconds <= 0 {
						t.Errorf("%s job %s has no JCT", v.Name, row.Job)
					}
				}
				if v.MakespanS <= 0 {
					t.Errorf("%s has no makespan", v.Name)
				}
			}
			if id == "multijob" {
				byName := map[string]MultijobVariant{}
				for _, v := range r.Variants {
					byName[v.Name] = v
				}
				if byName["fair"].MakespanS > byName["whole"].MakespanS {
					t.Errorf("fair partition makespan %.1f worse than oversubscribed %.1f",
						byName["fair"].MakespanS, byName["whole"].MakespanS)
				}
			}
		})
	}
}
