package wanify_test

import (
	"testing"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/predict"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/workloads"
)

// testModel caches one quick offline model for the whole test package:
// the offline module is cluster-independent, so tests reuse it the way
// a real deployment would.
var testModel *predict.Model

func getModel(t testing.TB) *predict.Model {
	t.Helper()
	if testModel == nil {
		m, _, err := wanify.QuickModel(42)
		if err != nil {
			t.Fatalf("QuickModel: %v", err)
		}
		testModel = m
	}
	return testModel
}

// TestOfflineModuleAccuracy trains the offline module and checks the
// §5.1 claim shape: high accuracy at the 100 Mbps significance
// threshold (the paper reports 98.51% on its full dataset).
func TestOfflineModuleAccuracy(t *testing.T) {
	model, rep, err := wanify.QuickModel(7)
	if err != nil {
		t.Fatal(err)
	}
	if model == nil {
		t.Fatal("nil model")
	}
	if rep.Rows < 200 {
		t.Errorf("collected only %d rows", rep.Rows)
	}
	if rep.TrainAccuracy < 0.90 {
		t.Errorf("train accuracy %.3f, want >= 0.90", rep.TrainAccuracy)
	}
	if rep.TestAccuracy < 0.80 {
		t.Errorf("test accuracy %.3f, want >= 0.80", rep.TestAccuracy)
	}
	t.Logf("rows=%d train=%.2f%% test=%.2f%% rmse=%.1f r2=%.3f importance=%v",
		rep.Rows, rep.TrainAccuracy*100, rep.TestAccuracy*100, rep.RMSE, rep.R2, rep.FeatureImportance)
}

// TestEndToEndTeraSort runs TeraSort under vanilla locality scheduling
// with a single connection, then under full WANify (predicted BWs +
// heterogeneous agent-managed connections + throttling), and checks the
// headline direction: WANify reduces JCT and raises the minimum
// observed bandwidth.
func TestEndToEndTeraSort(t *testing.T) {
	model := getModel(t)
	rates := cost.DefaultRates()
	input := workloads.UniformInput(8, 20e9) // scaled-down TeraSort

	runVanilla := func() spark.RunResult {
		sim := netsim.NewSim(netsim.UniformCluster(geo.Testbed(), substrate.T2Medium, 99))
		eng := spark.NewEngine(sim, rates)
		res, err := eng.RunJob(workloads.TeraSort(input), gda.Locality{}, spark.SingleConn{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runWANify := func() spark.RunResult {
		sim := netsim.NewSim(netsim.UniformCluster(geo.Testbed(), substrate.T2Medium, 99))
		fw, err := wanify.New(wanify.Config{
			Cluster: sim, Rates: rates, Seed: 1,
			Agent: agent.Config{Throttle: true},
		}, model)
		if err != nil {
			t.Fatal(err)
		}
		_, policy, _ := fw.Enable(wanify.OptimizeOptions{})
		defer fw.StopAgents()
		eng := spark.NewEngine(sim, rates)
		res, err := eng.RunJob(workloads.TeraSort(input), gda.Locality{}, policy)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	vanilla := runVanilla()
	wan := runWANify()
	t.Logf("vanilla: JCT=%.0fs cost=$%.2f minBW=%.0f Mbps", vanilla.JCTSeconds, vanilla.Cost.Total(), vanilla.MinShuffleMbps)
	t.Logf("wanify:  JCT=%.0fs cost=$%.2f minBW=%.0f Mbps", wan.JCTSeconds, wan.Cost.Total(), wan.MinShuffleMbps)

	if wan.JCTSeconds >= vanilla.JCTSeconds {
		t.Errorf("WANify JCT %.0fs did not beat vanilla %.0fs", wan.JCTSeconds, vanilla.JCTSeconds)
	}
	if wan.MinShuffleMbps <= vanilla.MinShuffleMbps {
		t.Errorf("WANify min BW %.0f did not beat vanilla %.0f", wan.MinShuffleMbps, vanilla.MinShuffleMbps)
	}
}
