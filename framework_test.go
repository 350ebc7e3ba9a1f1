package wanify_test

import (
	"fmt"
	"reflect"
	"testing"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/workloads"
)

// newFramework builds a framework over a fresh frozen cluster.
func newFramework(t *testing.T, vmsPerDC []int, throttle bool) (*wanify.Framework, *netsim.Sim) {
	t.Helper()
	model := getModel(t)
	regions := geo.TestbedSubset(len(vmsPerDC))
	vms := make([][]substrate.VMSpec, len(regions))
	for i, k := range vmsPerDC {
		for j := 0; j < k; j++ {
			vms[i] = append(vms[i], substrate.T2Medium)
		}
	}
	sim := netsim.NewSim(netsim.Config{Regions: regions, VMs: vms, Seed: 5, Frozen: true})
	fw, err := wanify.New(wanify.Config{
		Cluster: sim, Rates: cost.DefaultRates(), Seed: 5,
		Agent: agent.Config{Throttle: throttle},
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	return fw, sim
}

// TestNewValidation checks constructor error paths.
func TestNewValidation(t *testing.T) {
	model := getModel(t)
	if _, err := wanify.New(wanify.Config{}, model); err == nil {
		t.Error("nil sim accepted")
	}
	_, sim := newFramework(t, []int{1, 1, 1}, false)
	if _, err := wanify.New(wanify.Config{Cluster: sim}, nil); err == nil {
		t.Error("nil model accepted")
	}
}

// TestDetermineRuntimeBWShape checks the online prediction path.
func TestDetermineRuntimeBWShape(t *testing.T) {
	fw, sim := newFramework(t, []int{1, 1, 1, 1}, false)
	if fw.Predicted() != nil {
		t.Error("prediction exists before DetermineRuntimeBW")
	}
	before := sim.Now()
	pred, rep := fw.DetermineRuntimeBW()
	if sim.Now()-before != 1 {
		t.Errorf("snapshot consumed %v s, want 1", sim.Now()-before)
	}
	if pred.N() != 4 {
		t.Fatalf("matrix size %d", pred.N())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && pred[i][j] <= 0 {
				t.Errorf("prediction [%d][%d] = %v", i, j, pred[i][j])
			}
		}
	}
	if rep.BytesTransferred <= 0 {
		t.Error("snapshot transferred no bytes")
	}
	// Predicted() returns a defensive copy.
	cp := fw.Predicted()
	cp[0][1] = -1
	if fw.Predicted()[0][1] == -1 {
		t.Error("Predicted aliases internal state")
	}
}

// TestEnableDeploysAgentsPerVM checks the association path: one agent
// per VM, with DC-level connection counts chunked across a DC's VMs.
func TestEnableDeploysAgentsPerVM(t *testing.T) {
	fw, sim := newFramework(t, []int{3, 1, 1}, false)
	pred, policy, _ := fw.Enable(wanify.OptimizeOptions{})
	defer fw.StopAgents()

	agents := fw.Agents()
	if len(agents) != 5 {
		t.Fatalf("%d agents, want 5 (one per VM)", len(agents))
	}
	// DC0 has 3 VMs; the per-VM chunks of any destination's max conns
	// must sum to at least the DC-level plan (chunks floor at 1).
	plan := fw.Plan()
	var dc0Sum int
	for _, a := range agents {
		if a.DC() == 0 {
			dc0Sum += a.ConnsTo(1)
		}
	}
	if dc0Sum < plan.MaxConns[0][1] {
		t.Errorf("chunked conns to DC1 sum to %d, below DC-level %d", dc0Sum, plan.MaxConns[0][1])
	}
	// The policy resolves per sending VM.
	for _, vm := range sim.VMsOfDC(0) {
		if got := policy.Conns(vm, 1); got < 1 {
			t.Errorf("policy conns for VM %d = %d", vm, got)
		}
	}
	if pred.N() != 3 {
		t.Errorf("predicted size %d", pred.N())
	}
}

// TestStopAgentsClearsThrottles checks lifecycle cleanup: pair limits
// installed by throttling agents disappear after StopAgents.
func TestStopAgentsClearsThrottles(t *testing.T) {
	fw, sim := newFramework(t, []int{1, 1, 1, 1}, true)
	fw.Enable(wanify.OptimizeOptions{})
	// A probe on the strongest link runs under the agent throttle.
	probe := sim.StartProbe(sim.FirstVMOfDC(0), sim.FirstVMOfDC(1), 8)
	sim.RunFor(5)
	throttled := probe.Rate()
	fw.StopAgents()
	sim.RunFor(5)
	freed := probe.Rate()
	if freed < throttled {
		t.Errorf("rate after StopAgents %.0f below throttled %.0f", freed, throttled)
	}
	if fw.Agents() != nil {
		t.Error("agents not cleared")
	}
	probe.Stop()
}

// TestOptimizeAppliesRVec checks the §3.3.3 provider refactoring path
// through the public API.
func TestOptimizeAppliesRVec(t *testing.T) {
	fw, _ := newFramework(t, []int{1, 1, 1}, false)
	pred, _ := fw.DetermineRuntimeBW()
	providers := []string{"aws", "gcp", "aws"}
	rvec := optimize.RefactorFromProviders(providers, map[string]float64{"gcp": 0.8})
	plain := fw.Optimize(pred, wanify.OptimizeOptions{})
	scaled := fw.Optimize(pred, wanify.OptimizeOptions{RVec: rvec})
	// Connection counts unchanged; bandwidth targets scaled on
	// GCP-touching pairs.
	if scaled.MaxConns[0][1] != plain.MaxConns[0][1] {
		t.Error("rvec changed connection counts")
	}
	wantFactor := rvec[0][1]
	if got := scaled.MaxBW[0][1] / plain.MaxBW[0][1]; got < wantFactor-1e-9 || got > wantFactor+1e-9 {
		t.Errorf("cross-provider maxBW factor %v, want %v", got, wantFactor)
	}
	if scaled.MaxBW[0][2] != plain.MaxBW[0][2] {
		t.Error("aws-aws pair scaled despite factor 1")
	}
}

// TestRefactorFromProviders checks the helper's shape.
func TestRefactorFromProviders(t *testing.T) {
	rv := optimize.RefactorFromProviders([]string{"aws", "gcp"}, map[string]float64{"gcp": 0.64})
	if rv[0][0] != 1 {
		t.Errorf("aws-aws = %v", rv[0][0])
	}
	if rv[1][1] != 0.64 {
		t.Errorf("gcp-gcp = %v, want 0.64", rv[1][1])
	}
	if rv[0][1] != 0.8 { // sqrt(1 * 0.64)
		t.Errorf("aws-gcp = %v, want 0.8", rv[0][1])
	}
	if got := optimize.RefactorFromProviders([]string{"x"}, nil); got[0][0] != 1 {
		t.Error("unknown providers should default to 1")
	}
}

// TestEnableIsRepeatable checks Enable and EnableJobSet can be called
// again (fresh query, new snapshot) without leaking agents, and that
// the second call gauges the bare WAN: it stops the old deployment —
// its throttles and agents — before the snapshot, so it predicts and
// bills exactly what a twin that called StopAgents in between does.
func TestEnableIsRepeatable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		enable func(t *testing.T, fw *wanify.Framework) (bwmatrix.Matrix, measure.Report)
	}{
		{"Enable", func(t *testing.T, fw *wanify.Framework) (bwmatrix.Matrix, measure.Report) {
			pred, _, rep := fw.Enable(wanify.OptimizeOptions{})
			return pred, rep
		}},
		{"EnableJobSet", func(t *testing.T, fw *wanify.Framework) (bwmatrix.Matrix, measure.Report) {
			pred, _, rep, err := fw.EnableJobSet(wanify.JobSetOptions{Jobs: 2})
			if err != nil {
				t.Fatal(err)
			}
			return pred, rep
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fw, _ := newFramework(t, []int{2, 1, 1}, true)
			tc.enable(t, fw)
			first := fw.Agents()
			pred, rep := tc.enable(t, fw)
			second := fw.Agents()
			defer fw.StopAgents()
			if len(second) != len(first) {
				t.Errorf("agent count changed: %d -> %d", len(first), len(second))
			}
			for _, a := range first {
				for _, b := range second {
					if a == b {
						t.Fatal("old agents leaked into the new deployment")
					}
				}
			}

			twin, _ := newFramework(t, []int{2, 1, 1}, true)
			tc.enable(t, twin)
			twin.StopAgents()
			wantPred, wantRep := tc.enable(t, twin)
			defer twin.StopAgents()
			if rep != wantRep || !reflect.DeepEqual(pred, wantPred) {
				t.Errorf("second enable gauged under the old deployment: %+v, %v; after StopAgents: %+v, %v", rep, pred, wantRep, wantPred)
			}
		})
	}
}

// TestPlanRowsRespectEquationBounds cross-checks the deployed agents'
// windows against the plan they were chunked from.
func TestPlanRowsRespectEquationBounds(t *testing.T) {
	fw, _ := newFramework(t, []int{1, 1, 1, 1}, false)
	pred, _ := fw.DetermineRuntimeBW()
	plan := fw.Optimize(pred, wanify.OptimizeOptions{})
	fw.DeployAgents(pred, plan)
	defer fw.StopAgents()
	for _, a := range fw.Agents() {
		for j, c := range a.Conns() {
			if j == a.DC() {
				continue
			}
			if c < 1 || c > plan.MaxConns[a.DC()][j] {
				t.Errorf("agent DC%d conns to %d = %d outside [1, %d]",
					a.DC(), j, c, plan.MaxConns[a.DC()][j])
			}
		}
	}
}

// TestWANifyWinsAcrossSeeds is the paper's 5-run protocol in miniature:
// on the heavy query, full WANify must beat the vanilla baseline under
// (at least) a clear majority of network-weather draws.
func TestWANifyWinsAcrossSeeds(t *testing.T) {
	model := getModel(t)
	rates := cost.DefaultRates()
	input := make([]float64, 8)
	for i := range input {
		input[i] = 10e9 / 8
	}
	wins := 0
	const runs = 3
	for s := uint64(0); s < runs; s++ {
		vanilla := runSeedQuery(t, model, rates, input, 100+s, false)
		wan := runSeedQuery(t, model, rates, input, 100+s, true)
		if wan < vanilla {
			wins++
		}
		t.Logf("seed %d: vanilla %.1fs vs wanify %.1fs", 100+s, vanilla, wan)
	}
	if wins < runs-1 {
		t.Errorf("WANify won only %d/%d seeds", wins, runs)
	}
}

// runSeedQuery runs TPC-DS 78 once and returns the JCT.
func runSeedQuery(t *testing.T, model *predict.Model, rates cost.Rates, input []float64, seed uint64, useWANify bool) float64 {
	t.Helper()
	sim := netsim.NewSim(netsim.UniformCluster(geo.Testbed(), substrate.T2Medium, seed))
	job, err := workloads.TPCDS(78, input)
	if err != nil {
		t.Fatal(err)
	}
	eng := spark.NewEngine(sim, rates)
	info := gda.NewClusterInfo(sim, rates)

	if !useWANify {
		believed, _ := measure.StaticIndependent(sim, measure.Options{DurationS: 8})
		sim.RunUntil(700)
		res, err := eng.RunJob(job, gda.Tetrium{Believed: believed, Info: info}, spark.SingleConn{})
		if err != nil {
			t.Fatal(err)
		}
		return res.JCTSeconds
	}
	fw, err := wanify.New(wanify.Config{
		Cluster: sim, Rates: rates, Seed: seed,
		Agent: agent.Config{Throttle: true},
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(699)
	pred, policy, _ := fw.Enable(wanify.OptimizeOptions{})
	defer fw.StopAgents()
	res, err := eng.RunJob(job, gda.Tetrium{Believed: pred, Info: info}, policy)
	if err != nil {
		t.Fatal(err)
	}
	return res.JCTSeconds
}

// TestRuntimeControllerDisabledByDefault checks the default Enable path
// deploys no re-gauging controller (the base single-plan behaviour all
// golden outputs are locked against).
func TestRuntimeControllerDisabledByDefault(t *testing.T) {
	fw, _ := newFramework(t, []int{1, 1, 1}, false)
	fw.Enable(wanify.OptimizeOptions{})
	defer fw.StopAgents()
	if fw.Controller() != nil {
		t.Error("controller running without Runtime.Enabled")
	}
}

// TestRuntimeControllerEndToEnd runs a job with the re-gauging
// controller enabled (staleness-forced) and checks replans fire, the
// job completes, and StopAgents tears the controller down.
func TestRuntimeControllerEndToEnd(t *testing.T) {
	model := getModel(t)
	sim := netsim.NewSim(netsim.Config{
		Regions: geo.TestbedSubset(3),
		VMs: [][]substrate.VMSpec{
			{substrate.T2Medium}, {substrate.T2Medium}, {substrate.T2Medium},
		},
		Seed: 11, Frozen: true,
	})
	fw, err := wanify.New(wanify.Config{
		Cluster: sim, Rates: cost.DefaultRates(), Seed: 11,
		Agent: agent.Config{Throttle: true},
		Runtime: rgauge.Config{
			Enabled: true, EpochS: 5, StaleAfterS: 20, CooldownS: 10,
		},
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	pred, policy, _ := fw.Enable(wanify.OptimizeOptions{})
	ctl := fw.Controller()
	if ctl == nil {
		t.Fatal("Runtime.Enabled did not start a controller")
	}

	job := workloads.TeraSort(workloads.UniformInput(3, 30e9))
	eng := spark.NewEngine(sim, cost.DefaultRates())
	res, err := eng.RunJob(job, gda.Tetrium{Believed: pred, Info: gda.NewClusterInfo(sim, cost.DefaultRates())}, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCTSeconds <= 0 {
		t.Fatalf("job did not run")
	}
	if got := ctl.Replans(); got < 1 {
		t.Errorf("no staleness replans during a %.0fs job with StaleAfterS=20", res.JCTSeconds)
	}
	fw.StopAgents()
	if fw.Controller() != nil {
		t.Error("controller survived StopAgents")
	}
	if got := sim.ActiveFlows(); got != 0 {
		t.Errorf("%d flows left after teardown", got)
	}
}

// opLog wraps a cluster and records, in order, what a deployment does
// to it: every periodic timer it arms and every tc limit it sets or
// clears. Two deployments with equal logs armed their agent and
// controller epochs in the same sequence — so they fire in the same
// order — and left the same throttles behind.
type opLog struct {
	*netsim.Sim
	ops []string
}

func (l *opLog) Every(interval float64, fn func(now float64)) (cancel func()) {
	l.ops = append(l.ops, fmt.Sprintf("every %gs", interval))
	return l.Sim.Every(interval, fn)
}

func (l *opLog) SetPairLimit(src, dst int, mbps float64) {
	l.ops = append(l.ops, fmt.Sprintf("limit %d->%d %v", src, dst, mbps))
	l.Sim.SetPairLimit(src, dst, mbps)
}

func (l *opLog) ClearPairLimit(src, dst int) {
	l.ops = append(l.ops, fmt.Sprintf("clear %d->%d", src, dst))
	l.Sim.ClearPairLimit(src, dst)
}

// newLoggedFramework builds a throttling, re-gauging framework (a
// staleness clock forces replans, so the controller's swap path runs)
// over a fresh frozen cluster whose first DC has two VMs.
func newLoggedFramework(t *testing.T) (*wanify.Framework, *opLog) {
	t.Helper()
	regions := geo.TestbedSubset(3)
	vms := [][]substrate.VMSpec{{substrate.T2Medium, substrate.T2Medium}, {substrate.T2Medium}, {substrate.T2Medium}}
	log := &opLog{Sim: netsim.NewSim(netsim.Config{Regions: regions, VMs: vms, Seed: 11, Frozen: true})}
	fw, err := wanify.New(wanify.Config{
		Cluster: log, Rates: cost.DefaultRates(), Seed: 11,
		Agent:   agent.Config{Throttle: true},
		Runtime: rgauge.Config{Enabled: true, EpochS: 5, StaleAfterS: 20, CooldownS: 10},
	}, getModel(t))
	if err != nil {
		t.Fatal(err)
	}
	return fw, log
}

// sameDeployment compares two deployments agent by agent — VM, current
// connection counts, achievable-BW targets, windows — and by what they
// did to their clusters.
func sameDeployment(t *testing.T, what string, a, b [][]*agent.Agent, logA, logB *opLog) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d agent groups", what, len(a), len(b))
	}
	for g := range a {
		if len(a[g]) != len(b[g]) {
			t.Fatalf("%s: group %d has %d vs %d agents", what, g, len(a[g]), len(b[g]))
		}
		for k := range a[g] {
			x, y := a[g][k], b[g][k]
			if x.VM() != y.VM() || !reflect.DeepEqual(x.Conns(), y.Conns()) || !reflect.DeepEqual(x.TargetBW(), y.TargetBW()) ||
				!reflect.DeepEqual(x.Window(), y.Window()) {
				t.Errorf("%s: group %d agent %d differs: vm %d conns %v targets %v window %+v vs vm %d conns %v targets %v window %+v",
					what, g, k, x.VM(), x.Conns(), x.TargetBW(), x.Window(), y.VM(), y.Conns(), y.TargetBW(), y.Window())
			}
		}
	}
	if !reflect.DeepEqual(logA.ops, logB.ops) {
		t.Errorf("%s: cluster operations differ:\n%v\nvs\n%v", what, logA.ops, logB.ops)
	}
}

// TestEnableIsTheHandDrivenSteps locks Enable as nothing but
// DetermineRuntimeBW → Optimize → DeployAgents → StartController: the
// same agents with the same windows, targets, throttles and timer
// order at deploy time, and — after a job with forced replans ran over
// both — the same result, the same replans and the same final windows.
func TestEnableIsTheHandDrivenSteps(t *testing.T) {
	opts := wanify.OptimizeOptions{SkewWeights: []float64{3, 1, 1}}
	fwA, logA := newLoggedFramework(t)
	predA, policyA, repA := fwA.Enable(opts)
	defer fwA.StopAgents()

	fwB, logB := newLoggedFramework(t)
	predB, repB := fwB.DetermineRuntimeBW()
	fwB.DeployAgents(predB, fwB.Optimize(predB, opts))
	fwB.StartController(opts)
	policyB := fwB.ConnPolicy()
	defer fwB.StopAgents()

	if !reflect.DeepEqual(predA, predB) || repA != repB {
		t.Fatalf("gauging differs: %v (%+v) vs %v (%+v)", predA, repA, predB, repB)
	}
	sameDeployment(t, "at deploy", fwA.JobAgents(), fwB.JobAgents(), logA, logB)

	run := func(sim substrate.Cluster, pred bwmatrix.Matrix, policy spark.ConnPolicy) spark.RunResult {
		rates := cost.DefaultRates()
		res, err := spark.NewEngine(sim, rates).RunJob(
			workloads.TeraSort(workloads.UniformInput(3, 30e9)),
			gda.Tetrium{Believed: pred, Info: gda.NewClusterInfo(sim, rates)}, policy)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resA, resB := run(logA, predA, policyA), run(logB, predB, policyB)
	if resA.JCTSeconds != resB.JCTSeconds || resA.WANBytes != resB.WANBytes {
		t.Errorf("job differs: %.6fs / %.0f B vs %.6fs / %.0f B", resA.JCTSeconds, resA.WANBytes, resB.JCTSeconds, resB.WANBytes)
	}
	if fwA.Controller().Replans() < 1 || !reflect.DeepEqual(fwA.Controller().Events(), fwB.Controller().Events()) {
		t.Errorf("replans differ (or none fired): %v vs %v", fwA.Controller().Events(), fwB.Controller().Events())
	}
	sameDeployment(t, "after the job", fwA.JobAgents(), fwB.JobAgents(), logA, logB)
}
