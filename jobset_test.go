package wanify_test

import (
	"math"
	"reflect"
	"testing"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/workloads"
)

// TestEnableJobSetDeploysPartitionedAgents checks the multi-tenant
// deploy path: N agent groups (one per job, one agent per VM), one
// policy per job, and per-pair windows that sum within the global plan.
func TestEnableJobSetDeploysPartitionedAgents(t *testing.T) {
	fw, sim := newFramework(t, []int{1, 1, 1}, false)
	_, policies, _, err := fw.EnableJobSet(wanify.JobSetOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.StopAgents()
	groups := fw.JobAgents()
	if len(groups) != 2 || len(policies) != 2 {
		t.Fatalf("got %d groups, %d policies, want 2 each", len(groups), len(policies))
	}
	for g, group := range groups {
		if len(group) != sim.NumVMs() {
			t.Fatalf("job %d has %d agents for %d VMs", g, len(group), sim.NumVMs())
		}
	}
	plan := fw.Plan()
	n := sim.NumDCs()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sum := 0
			for _, group := range groups {
				for _, a := range group {
					if a.DC() == i {
						sum += a.Conns()[j]
					}
				}
			}
			if sum > plan.MaxConns[i][j] {
				t.Errorf("pair (%d,%d): deployed job conns %d exceed the global window %d",
					i, j, sum, plan.MaxConns[i][j])
			}
		}
	}
	if fw.Controller() != nil {
		t.Error("controller started without Runtime enabled")
	}
}

// TestEnableJobSetValidates checks option validation.
func TestEnableJobSetValidates(t *testing.T) {
	fw, _ := newFramework(t, []int{1, 1, 1}, false)
	if _, _, _, err := fw.EnableJobSet(wanify.JobSetOptions{Jobs: 0}); err == nil {
		t.Error("zero jobs accepted")
	}
	if _, _, _, err := fw.EnableJobSet(wanify.JobSetOptions{
		Jobs: 2, Share: optimize.SharePriority, Priorities: []float64{1},
	}); err == nil {
		t.Error("mismatched priorities accepted")
	}
	// A dynamic set takes priorities per AdmitJob and has no single job
	// set to poll for remaining bytes.
	for name, o := range map[string]wanify.JobSetOptions{
		"zero slots":    {Jobs: 0, Dynamic: true},
		"priorities":    {Jobs: 2, Dynamic: true, Share: optimize.SharePriority, Priorities: []float64{3, 1}},
		"oversubscribe": {Jobs: 2, Dynamic: true, Oversubscribe: true},
		"remaining":     {Jobs: 2, Dynamic: true, Share: optimize.ShareRemaining},
	} {
		if _, _, _, err := fw.EnableJobSet(o); err == nil {
			t.Errorf("dynamic job set with %s accepted", name)
		}
	}
}

// TestJobSetEndToEndContention runs two TeraSorts concurrently under
// partitioned WANify agents and checks the whole stack holds together:
// both jobs finish, bytes conserve, and the per-job policies draw
// connection counts from their own windows.
func TestJobSetEndToEndContention(t *testing.T) {
	fw, sim := newFramework(t, []int{1, 1, 1, 1}, true)
	pred, policies, _, err := fw.EnableJobSet(wanify.JobSetOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.StopAgents()

	rates := cost.DefaultRates()
	eng := spark.NewEngine(sim, rates)
	info := gda.NewClusterInfo(sim, rates)
	var runs []spark.JobRun
	for g := 0; g < 2; g++ {
		job := workloads.TeraSort(workloads.UniformInput(sim.NumDCs(), 4e9))
		runs = append(runs, spark.JobRun{
			Job:    job,
			Sched:  gda.Tetrium{Believed: pred, Info: info},
			Policy: policies[g],
		})
	}
	res, err := eng.RunJobSet(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("got %d results", len(res.Results))
	}
	for i, r := range res.Results {
		if r.JCTSeconds <= 0 {
			t.Errorf("job %d JCT = %v", i, r.JCTSeconds)
		}
		if r.WANBytes <= 0 {
			t.Errorf("job %d moved no WAN bytes", i)
		}
		var stageBytes float64
		for _, st := range r.Stages {
			stageBytes += st.WANBytes
		}
		if math.Abs(stageBytes-r.WANBytes) > 1 {
			t.Errorf("job %d: stage bytes %v != total %v", i, stageBytes, r.WANBytes)
		}
	}
	if res.MakespanS <= 0 {
		t.Error("no makespan")
	}
}

// TestJobSetControllerArbitratesForAllJobs enables the runtime
// controller over a two-job set on a degrading network and checks a
// single controller re-gauges for both jobs.
func TestJobSetControllerArbitratesForAllJobs(t *testing.T) {
	fw, sim := newFramework(t, []int{1, 1, 1}, false)
	// Staleness-triggered so the test does not depend on drift detail.
	fwCfg := wanify.JobSetOptions{Jobs: 2, Share: optimize.ShareFair}
	_, _, _, err := fw.EnableJobSet(fwCfg)
	if err != nil {
		t.Fatal(err)
	}
	// EnableJobSet without Runtime leaves no controller; start one by
	// hand with a staleness clock through the framework path.
	fw.StartController(fwCfg.Optimize)
	defer fw.StopAgents()
	if fw.Controller() == nil {
		t.Fatal("no controller")
	}
	sim.RunFor(40)
	// No drift on a frozen idle cluster: zero replans, zero churn.
	if got := fw.Controller().Replans(); got != 0 {
		t.Errorf("idle frozen cluster replanned %d times", got)
	}
}

// TestStopAgentsClearsJobSetState checks a job-set deployment tears
// down cleanly and a fresh single-job Enable works afterwards.
func TestStopAgentsClearsJobSetState(t *testing.T) {
	fw, sim := newFramework(t, []int{1, 1, 1}, true)
	if _, _, _, err := fw.EnableJobSet(wanify.JobSetOptions{Jobs: 3}); err != nil {
		t.Fatal(err)
	}
	fw.StopAgents()
	if fw.JobAgents() != nil {
		t.Error("job agents survive StopAgents")
	}
	// Cluster-level throttles cleared: probes run at full speed.
	for i := 0; i < sim.NumDCs(); i++ {
		for j := 0; j < sim.NumDCs(); j++ {
			if i != j {
				sim.ClearPairLimit(i, j) // idempotent if already cleared
			}
		}
	}
	pred, policy, _ := fw.Enable(wanify.OptimizeOptions{})
	defer fw.StopAgents()
	if pred == nil || policy == nil {
		t.Fatal("single-job Enable broken after job set")
	}
	if got := len(fw.Agents()); got != sim.NumVMs() {
		t.Fatalf("single-job redeploy has %d agents for %d VMs", got, sim.NumVMs())
	}
}

// TestEnableJobSetIsTheHandDrivenSteps is the job-set counterpart of
// TestEnableIsTheHandDrivenSteps: EnableJobSet is nothing but
// DetermineRuntimeBW → Optimize → DeployJobSetAgents → StartController,
// group by group and agent by agent — with every slot occupied at once,
// and with the slots open free and two jobs admitted after.
func TestEnableJobSetIsTheHandDrivenSteps(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    wanify.JobSetOptions
	}{
		{"occupied", wanify.JobSetOptions{Jobs: 2, Share: optimize.SharePriority, Priorities: []float64{3, 1}}},
		{"dynamic", wanify.JobSetOptions{Jobs: 2, Share: optimize.SharePriority, Dynamic: true}},
	} {
		t.Run(tc.name, func(t *testing.T) { handDrivenJobSet(t, tc.o) })
	}
}

func handDrivenJobSet(t *testing.T, o wanify.JobSetOptions) {
	// admit fills a dynamic deployment's slots (priorities 3 and 1, as
	// the occupied row's) and returns the policies the jobs run under.
	admit := func(fw *wanify.Framework, policies []spark.ConnPolicy) []spark.ConnPolicy {
		if !o.Dynamic {
			return policies
		}
		for _, prio := range []float64{3, 1} {
			slot, policy, err := fw.AdmitJob(prio)
			if err != nil {
				t.Fatal(err)
			}
			policies[slot] = policy
		}
		return policies
	}
	fwA, logA := newLoggedFramework(t)
	predA, policiesA, repA, err := fwA.EnableJobSet(o)
	if err != nil {
		t.Fatal(err)
	}
	policiesA = admit(fwA, policiesA)
	defer fwA.StopAgents()

	fwB, logB := newLoggedFramework(t)
	predB, repB := fwB.DetermineRuntimeBW()
	if err := fwB.DeployJobSetAgents(predB, fwB.Optimize(predB, o.Optimize), o); err != nil {
		t.Fatal(err)
	}
	fwB.StartController(o.Optimize)
	policiesB := admit(fwB, fwB.JobPolicies())
	defer fwB.StopAgents()

	if !reflect.DeepEqual(predA, predB) || repA != repB {
		t.Fatalf("gauging differs: %v (%+v) vs %v (%+v)", predA, repA, predB, repB)
	}
	sameDeployment(t, "at deploy", fwA.JobAgents(), fwB.JobAgents(), logA, logB)

	run := func(log *opLog, pred bwmatrix.Matrix, policies []spark.ConnPolicy) spark.JobSetResult {
		rates := cost.DefaultRates()
		var runs []spark.JobRun
		for g, policy := range policies {
			runs = append(runs, spark.JobRun{
				Job:         workloads.TeraSort(workloads.UniformInput(3, 20e9)),
				Sched:       gda.Tetrium{Believed: pred, Info: gda.NewClusterInfo(log, rates)},
				Policy:      policy,
				StartDelayS: 10 * float64(g),
			})
		}
		res, err := spark.NewEngine(log, rates).RunJobSet(runs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resA, resB := run(logA, predA, policiesA), run(logB, predB, policiesB)
	for g := range resA.Results {
		if a, b := resA.Results[g], resB.Results[g]; a.JCTSeconds != b.JCTSeconds || a.WANBytes != b.WANBytes {
			t.Errorf("job %d differs: %.6fs / %.0f B vs %.6fs / %.0f B", g, a.JCTSeconds, a.WANBytes, b.JCTSeconds, b.WANBytes)
		}
	}
	if fwA.Controller().Replans() < 1 || !reflect.DeepEqual(fwA.Controller().Events(), fwB.Controller().Events()) {
		t.Errorf("replans differ (or none fired): %v vs %v", fwA.Controller().Events(), fwB.Controller().Events())
	}
	sameDeployment(t, "after the set", fwA.JobAgents(), fwB.JobAgents(), logA, logB)
}
