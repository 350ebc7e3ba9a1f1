package spark

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/tracesim"
)

// testJob is a two-stage job (map + shuffle) sized to run a few
// simulated minutes on the test clusters.
func testJob(name string, n int, totalBytes float64) Job {
	input := make([]float64, n)
	for i := range input {
		input[i] = totalBytes / float64(n)
	}
	return Job{
		Name:       name,
		InputBytes: input,
		Stages: []Stage{
			{Name: "scan", Kind: MapKind, SecPerGB: 4, Selectivity: 1.0},
			{Name: "shuffle", Kind: ReduceKind, SecPerGB: 8, Selectivity: 0.1},
		},
	}
}

// TestConcurrentLoadSurvivesStageBoundary is the regression test for
// the engine.go CPU-load clobber: RunJob used to reset CPU load to 0
// on ALL VMs after each compute phase, erasing load set by anything
// else sharing the cluster. With the load ledger, only the load the
// stage itself set is restored.
func TestConcurrentLoadSurvivesStageBoundary(t *testing.T) {
	sim := frozenSim(3, 1)
	eng := NewEngine(sim, cost.DefaultRates())

	// A co-tenant (another job, a monitoring service) holds 0.4 load on
	// every VM before the job starts.
	const coLoad = 0.4
	for v := 0; v < sim.NumVMs(); v++ {
		sim.SetCPULoad(substrate.VMID(v), coLoad)
	}

	_, err := eng.RunJob(testJob("tenant", 3, 3e9), localitySched{}, SingleConn{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < sim.NumVMs(); v++ {
		if got := sim.VMStats(substrate.VMID(v)).CPULoad; math.Abs(got-coLoad) > 1e-9 {
			t.Fatalf("VM %d load after job = %v, want the co-tenant's %v to survive", v, got, coLoad)
		}
	}
}

// TestLoadLedgerComposesDuringPhases checks the mid-phase composition:
// while the job computes, the substrate sees co-tenant + stage load,
// clamped into [0, 1].
func TestLoadLedgerComposesDuringPhases(t *testing.T) {
	sim := frozenSim(3, 2)
	eng := NewEngine(sim, cost.DefaultRates())
	for v := 0; v < sim.NumVMs(); v++ {
		sim.SetCPULoad(substrate.VMID(v), 0.4)
	}
	// The job's map stage moves nothing (locality on a uniform layout)
	// and computes for exactly 4 s; the shuffle transfer starts at t=4.
	var duringCompute, duringTransfer float64
	sim.After(1.0, func(float64) {
		duringCompute = sim.VMStats(sim.FirstVMOfDC(0)).CPULoad
	})
	sim.After(4.5, func(float64) {
		duringTransfer = sim.VMStats(sim.FirstVMOfDC(0)).CPULoad
	})
	if _, err := eng.RunJob(testJob("tenant", 3, 3e9), localitySched{}, SingleConn{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(duringCompute-1.0) > 1e-9 { // 0.4 + 0.9 clamped to the substrate domain
		t.Fatalf("mid-compute load = %v, want 0.4 + 0.9 clamped to 1", duringCompute)
	}
	want := 0.4 + transferCPULoad
	if math.Abs(duringTransfer-want) > 1e-9 {
		t.Fatalf("mid-transfer load = %v, want co-tenant 0.4 + transfer %v", duringTransfer, transferCPULoad)
	}
}

// TestRunStopsOnCompletionInstant locks the drive loop's contract on
// backends whose links move (so flow completions land off any grid): Run
// returns with the clock exactly on the last job's completion, for a
// single RunJob and for a concurrent set alike. A ticking drive loop
// fails this by overshooting to its next tick.
func TestRunStopsOnCompletionInstant(t *testing.T) {
	backends := map[string]func() substrate.Cluster{
		"netsim": func() substrate.Cluster {
			return netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, 7))
		},
		"tracesim": func() substrate.Cluster {
			sim, err := tracesim.New(tracesim.Config{Trace: tracesim.Cloud4(), Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			return sim
		},
	}
	for name, mk := range backends {
		sim := mk()
		start := sim.Now()
		res, err := NewEngine(sim, cost.DefaultRates()).RunJob(testJob("solo", 4, 8e9), localitySched{}, SingleConn{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sim.Now(), start+res.JCTSeconds; got != want {
			t.Errorf("%s RunJob: clock at %v, job completed at %v", name, got, want)
		}

		sim = mk()
		start = sim.Now()
		set, err := NewEngine(sim, cost.DefaultRates()).RunJobSet([]JobRun{
			{Job: testJob("a", 4, 8e9), Sched: localitySched{}},
			{Job: testJob("b", 4, 5e9), Sched: localitySched{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sim.Now(), start+set.MakespanS; got != want {
			t.Errorf("%s RunJobSet: clock at %v, last job completed at %v", name, got, want)
		}
	}
}

// TestStageBoundaryFiresInTimerOrder pins the same-instant rule of the
// one runner: a compute phase's end is an ordinary substrate timer, so
// when it falls on the very instant some other periodic callback is due
// (an agent or controller epoch), the two fire in timer-sequence order.
// The compute timer is armed when the phase starts, an epoch re-arms one
// interval ahead, so the stage boundary normally comes first and the
// epoch already sees the next stage's transfers. This is where the old
// synchronous RunJob loop differed: it drove the clock through the
// compute phase with RunFor and started the next stage only after every
// timer of that instant had fired, so the epoch saw an idle WAN.
func TestStageBoundaryFiresInTimerOrder(t *testing.T) {
	sim := frozenSim(3, 2)
	eng := NewEngine(sim, cost.DefaultRates())
	// The map stage moves nothing and computes for exactly 4 s; the
	// shuffle's flows start at the stage boundary, t=4.
	earlier, later := -1, -1
	sim.After(4, func(float64) { earlier = sim.ActiveFlows() }) // armed before the compute timer
	sim.Every(2, func(now float64) {                            // re-armed at t=2, after it
		if now == 4 {
			later = sim.ActiveFlows()
		}
	})
	if _, err := eng.RunJob(testJob("tenant", 3, 3e9), localitySched{}, SingleConn{}); err != nil {
		t.Fatal(err)
	}
	if earlier != 0 {
		t.Errorf("timer armed before the compute phase saw %d flows at t=4, want 0 (it fires first)", earlier)
	}
	if later <= 0 {
		t.Errorf("epoch re-armed during the compute phase saw %d flows at t=4, want the shuffle already started", later)
	}
}

// TestJobSetContentionAndConservation runs two jobs concurrently and
// checks the multi-tenant physics: WAN bytes are conserved exactly
// (contention changes timing, never volume — every job moves the same
// bytes it moves when running alone), and sharing the WAN cannot make
// either job faster than its solo run.
func TestJobSetContentionAndConservation(t *testing.T) {
	jobs := []Job{testJob("a", 4, 8e9), testJob("b", 4, 6e9)}

	solo := make([]RunResult, len(jobs))
	for i, job := range jobs {
		sim := frozenSim(4, 11)
		eng := NewEngine(sim, cost.DefaultRates())
		r, err := eng.RunJob(job, localitySched{}, SingleConn{})
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = r
	}

	sim := frozenSim(4, 11)
	eng := NewEngine(sim, cost.DefaultRates())
	got, err := eng.RunJobSet([]JobRun{
		{Job: jobs[0], Sched: localitySched{}, Policy: SingleConn{}},
		{Job: jobs[1], Sched: localitySched{}, Policy: SingleConn{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Results {
		if r.WANBytes != solo[i].WANBytes {
			t.Errorf("job %d WAN bytes under contention %v, solo %v (bytes not conserved)",
				i, r.WANBytes, solo[i].WANBytes)
		}
		if r.JCTSeconds < solo[i].JCTSeconds-1e-9 {
			t.Errorf("job %d finished faster under contention (%v) than solo (%v)",
				i, r.JCTSeconds, solo[i].JCTSeconds)
		}
		var stageBytes float64
		for _, st := range r.Stages {
			stageBytes += st.WANBytes
		}
		if math.Abs(stageBytes-r.WANBytes) > 1 {
			t.Errorf("job %d stage bytes %v != job bytes %v", i, stageBytes, r.WANBytes)
		}
	}
	// Genuine contention: at least one job must actually be slower.
	slower := false
	for i, r := range got.Results {
		if r.JCTSeconds > solo[i].JCTSeconds*1.01 {
			slower = true
		}
	}
	if !slower {
		t.Error("two concurrent shuffles showed no contention at all")
	}
}

// TestFinishedJobSetNotRetainedBySubstrate keeps only the simulator of
// a finished job set. Its pending stage deadlines fire hours of
// simulated time later and its finished flows can outlive the set
// (pending ramp boundaries, a caller's handle), but none of them may keep
// the jobs' state and stage reports reachable.
func TestFinishedJobSetNotRetainedBySubstrate(t *testing.T) {
	sim := frozenSim(4, 11)
	got, err := NewEngine(sim, cost.DefaultRates()).RunJobSet([]JobRun{
		{Job: testJob("a", 4, 8e9), Sched: localitySched{}, Policy: SingleConn{}},
		{Job: testJob("b", 4, 6e9), Sched: localitySched{}, Policy: SingleConn{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	last := got.Results[1].Stages
	pairs := last[len(last)-1].Pairs // the shuffle: it moved bytes
	if len(pairs) == 0 {
		t.Fatal("the last stage planned no transfer")
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(&pairs[0], func(*PairStat) { close(freed) })
	got, last, pairs = JobSetResult{}, nil, nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Error("the simulator still reaches a finished job's stage report")
	}
	runtime.KeepAlive(sim)
}

// TestJobSetStartDelays staggers job entries and checks both the delay
// accounting (JCT measured from the job's own start) and the makespan.
func TestJobSetStartDelays(t *testing.T) {
	sim := frozenSim(3, 5)
	eng := NewEngine(sim, cost.DefaultRates())
	start := sim.Now()
	got, err := eng.RunJobSet([]JobRun{
		{Job: testJob("early", 3, 4e9), Sched: localitySched{}, Policy: SingleConn{}},
		{Job: testJob("late", 3, 4e9), Sched: localitySched{}, Policy: SingleConn{}, StartDelayS: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Results[0].JCTSeconds <= 0 || got.Results[1].JCTSeconds <= 0 {
		t.Fatalf("zero JCTs: %+v", got.Results)
	}
	wantMakespan := 60 + got.Results[1].JCTSeconds
	if math.Abs(got.MakespanS-wantMakespan) > 1e-6 && got.MakespanS < wantMakespan {
		t.Errorf("makespan %v, want >= late start + late JCT = %v", got.MakespanS, wantMakespan)
	}
	_ = start
}

// TestJobSetValidates checks construction errors.
func TestJobSetValidates(t *testing.T) {
	sim := frozenSim(3, 1)
	eng := NewEngine(sim, cost.DefaultRates())
	if _, err := eng.RunJobSet(nil); err == nil {
		t.Error("empty set should error")
	}
	bad := testJob("bad", 4, 1e9) // 4-DC job on a 3-DC cluster
	if _, err := eng.RunJobSet([]JobRun{{Job: bad, Sched: localitySched{}}}); err == nil {
		t.Error("mis-shaped job should error")
	}
	if _, err := eng.RunJobSet([]JobRun{{Job: testJob("x", 3, 1e9)}}); err == nil {
		t.Error("missing scheduler should error")
	}
	if _, err := eng.RunJobSet([]JobRun{{Job: testJob("x", 3, 1e9), Sched: localitySched{}, StartDelayS: -1}}); err == nil {
		t.Error("negative delay should error")
	}
	// RunJob is a set of one: same validation, same defaults.
	if _, err := eng.RunJob(testJob("x", 3, 1e9), nil, SingleConn{}); err == nil || !strings.Contains(err.Error(), "no scheduler") {
		t.Errorf("RunJob with a nil scheduler = %v, want the missing-scheduler error", err)
	}
	if _, err := eng.RunJob(testJob("x", 3, 1e9), localitySched{}, nil); err != nil {
		t.Errorf("RunJob with a nil policy = %v, want the SingleConn default", err)
	}
}

// TestJobSetRemainingBytes checks the bytes-remaining signal drains to
// zero as jobs finish.
func TestJobSetRemainingBytes(t *testing.T) {
	sim := frozenSim(3, 3)
	eng := NewEngine(sim, cost.DefaultRates())
	js, err := NewJobSet(eng, []JobRun{
		{Job: testJob("a", 3, 4e9), Sched: localitySched{}, Policy: SingleConn{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := js.RemainingBytes()
	if before[0] != 4e9 {
		t.Fatalf("initial remaining = %v, want full input", before)
	}
	var mid []float64
	sim.After(1, func(float64) { mid = js.RemainingBytes() })
	if _, err := js.Run(); err != nil {
		t.Fatal(err)
	}
	if mid == nil || mid[0] <= 0 {
		t.Errorf("mid-run remaining = %v, want positive", mid)
	}
	after := js.RemainingBytes()
	if after[0] != 0 {
		t.Errorf("post-run remaining = %v, want 0", after)
	}
}

// TestJobSetComputeDominatedNotAborted guards the liveness bound: the
// deadline must extend with scheduled compute, so a set whose compute
// time dwarfs MaxStageTransferS (which bounds only transfer phases)
// still completes — exactly as RunJob would.
func TestJobSetComputeDominatedNotAborted(t *testing.T) {
	sim := frozenSim(3, 13)
	eng := NewEngine(sim, cost.DefaultRates())
	eng.MaxStageTransferS = 60 // transfers are quick; compute is not
	job := Job{
		Name:       "crunch",
		InputBytes: []float64{3e9, 3e9, 3e9},
		Stages: []Stage{
			{Name: "think", Kind: MapKind, SecPerGB: 100, Selectivity: 1}, // ~300 s compute, no transfer
			{Name: "mix", Kind: ReduceKind, SecPerGB: 100, Selectivity: 1},
		},
	}
	got, err := eng.RunJobSet([]JobRun{{Job: job, Sched: localitySched{}, Policy: SingleConn{}}})
	if err != nil {
		t.Fatalf("compute-dominated set aborted: %v", err)
	}
	if got.Results[0].JCTSeconds < 300 {
		t.Fatalf("JCT %v, expected several hundred seconds of compute", got.Results[0].JCTSeconds)
	}
}
