package spark

import (
	"math"
	"strings"
	"testing"

	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/substrate"
)

// faultJob is a two-stage all-shuffle job: WAN transfers start at t=0,
// so tests can schedule faults mid-transfer without calibrating stage
// boundaries first.
func faultJob(n int, totalBytes float64) Job {
	input := make([]float64, n)
	for i := range input {
		input[i] = totalBytes / float64(n)
	}
	return Job{
		Name:       "faulty",
		InputBytes: input,
		Stages: []Stage{
			{Name: "shuffle-1", Kind: ReduceKind, SecPerGB: 2, Selectivity: 0.5},
			{Name: "shuffle-2", Kind: ReduceKind, SecPerGB: 2, Selectivity: 0.1},
		},
	}
}

func killDC(s interface {
	VMsOfDC(dc int) []substrate.VMID
	KillVM(id substrate.VMID, t float64)
}, dc int, t float64) {
	for _, vm := range s.VMsOfDC(dc) {
		s.KillVM(vm, t)
	}
}

// TestRecoveryDeadDC: a DC dies mid-shuffle; with recovery enabled the
// job completes on the surviving topology — bytes headed to the dead
// DC re-spread over survivors, bytes sourced there re-sent from the
// ring replica — and the byte accounting closes.
func TestRecoveryDeadDC(t *testing.T) {
	job := faultJob(3, 30e9)
	run := func() (RunResult, float64) {
		sim := frozenSim(3, 21)
		eng := NewEngine(sim, cost.DefaultRates())
		eng.Recovery.Enabled = true
		killDC(sim, 2, 5) // mid-shuffle: stage 1 lasts ~20 s
		res, err := eng.RunJob(job, localitySched{}, SingleConn{})
		if err != nil {
			t.Fatalf("recovery-enabled run failed: %v", err)
		}
		return res, float64(sim.ActiveFlows())
	}
	res, active := run()
	if active != 0 {
		t.Errorf("%v flows still active after the job", active)
	}
	if res.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want at least one wave", res.Recoveries)
	}
	if res.LostBytes <= 0 {
		t.Error("no bytes recorded lost despite a DC death mid-shuffle")
	}
	if math.Abs(res.RecoveredBytes-res.LostBytes) > 64 {
		t.Errorf("recovered %.0f != lost %.0f: recovery dropped bytes", res.RecoveredBytes, res.LostBytes)
	}
	if res.RecomputeS != 0 {
		t.Errorf("RecomputeS = %v, want 0 (the replica survived)", res.RecomputeS)
	}
	for si, st := range res.Stages {
		if st.Placement[2] != 0 {
			t.Errorf("stage %d placement still uses the dead DC: %v", si, st.Placement)
		}
		// A rate is a planned pair's: a recovery wave re-sends only part
		// of the pair's bytes, timed from the stage start, and must not
		// overwrite it with one slower than the stage itself allows.
		for _, ps := range st.Pairs {
			if s := ps.Bytes * 8 / 1e6 / ps.Mbps; ps.Mbps > 0 && s > st.TransferS*(1+1e-9) {
				t.Errorf("stage %d pair %d->%d: %.1f Mbps for %.3g bytes is %.2f s of transfer in a %.2f s stage",
					si, ps.I, ps.J, ps.Mbps, ps.Bytes, s, st.TransferS)
			}
		}
	}
	if res.MinShuffleMbps <= 0 {
		t.Error("no planned pair of the faulted run reported a rate")
	}
	wantOut := 30e9 * 0.5 * 0.1
	if math.Abs(res.OutputBytes-wantOut)/wantOut > 1e-6 {
		t.Errorf("OutputBytes = %.0f, want %.0f: faults broke byte conservation", res.OutputBytes, wantOut)
	}

	// Recovery is as deterministic as the fault schedule that caused it.
	res2, _ := run()
	if res.JCTSeconds != res2.JCTSeconds || res.WANBytes != res2.WANBytes || res.Recoveries != res2.Recoveries {
		t.Errorf("identical faulted runs diverged: JCT %v/%v WAN %v/%v waves %d/%d",
			res.JCTSeconds, res2.JCTSeconds, res.WANBytes, res2.WANBytes, res.Recoveries, res2.Recoveries)
	}
}

// TestRecoveryReexecute: both a source DC and its ring replica die, so
// the lost partitions must be re-executed from durable input — charged
// as extra compute on the survivors.
func TestRecoveryReexecute(t *testing.T) {
	job := faultJob(3, 30e9)

	// Calibrate stage-2's transfer window on a fault-free twin.
	ref := frozenSim(3, 22)
	refEng := NewEngine(ref, cost.DefaultRates())
	refRes, err := refEng.RunJob(job, localitySched{}, SingleConn{})
	if err != nil {
		t.Fatal(err)
	}
	st1 := refRes.Stages[0]
	killAt := st1.TransferS + st1.ComputeS + 0.3*refRes.Stages[1].TransferS

	sim := frozenSim(3, 22)
	eng := NewEngine(sim, cost.DefaultRates())
	eng.Recovery.Enabled = true
	killDC(sim, 0, killAt)
	killDC(sim, 1, killAt) // DC 0's replica dies with it
	res, err := eng.RunJob(job, localitySched{}, SingleConn{})
	if err != nil {
		t.Fatalf("re-execution run failed: %v", err)
	}
	if res.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want at least one wave", res.Recoveries)
	}
	if res.RecomputeS <= 0 {
		t.Error("RecomputeS = 0: re-executed partitions were not charged")
	}
	last := res.Stages[len(res.Stages)-1]
	if last.Placement[2] != 1 {
		t.Errorf("final placement %v, want everything on the sole survivor", last.Placement)
	}
	wantOut := 30e9 * 0.5 * 0.1
	if math.Abs(res.OutputBytes-wantOut)/wantOut > 1e-6 {
		t.Errorf("OutputBytes = %.0f, want %.0f", res.OutputBytes, wantOut)
	}
}

// TestRecoveryComputePhaseKill: a DC that dies during a compute phase
// fails no flows; the loss surfaces at the next stage boundary, where
// repairLayout moves its resident bytes onto the ring replica.
func TestRecoveryComputePhaseKill(t *testing.T) {
	job := faultJob(3, 30e9)
	ref := frozenSim(3, 23)
	refEng := NewEngine(ref, cost.DefaultRates())
	refRes, err := refEng.RunJob(job, localitySched{}, SingleConn{})
	if err != nil {
		t.Fatal(err)
	}
	st1 := refRes.Stages[0]
	killAt := st1.TransferS + 0.5*st1.ComputeS // inside stage 1's compute

	sim := frozenSim(3, 23)
	eng := NewEngine(sim, cost.DefaultRates())
	eng.Recovery.Enabled = true
	killDC(sim, 1, killAt)
	res, err := eng.RunJob(job, localitySched{}, SingleConn{})
	if err != nil {
		t.Fatalf("compute-phase kill run failed: %v", err)
	}
	st2 := res.Stages[1]
	if st2.LostBytes <= 0 {
		t.Error("stage 2 recorded no loss from the dead DC's resident bytes")
	}
	if st2.Placement[1] != 0 {
		t.Errorf("stage 2 placement still uses the dead DC: %v", st2.Placement)
	}
	wantOut := 30e9 * 0.5 * 0.1
	if math.Abs(res.OutputBytes-wantOut)/wantOut > 1e-6 {
		t.Errorf("OutputBytes = %.0f, want %.0f", res.OutputBytes, wantOut)
	}
}

// TestPartitionDoesNotTriggerRecovery: a transient partition stalls
// flows without failing them, so recovery must stay quiet and the job
// simply takes longer.
func TestPartitionDoesNotTriggerRecovery(t *testing.T) {
	sim := frozenSim(3, 24)
	eng := NewEngine(sim, cost.DefaultRates())
	eng.Recovery.Enabled = true
	sim.PartitionDC(1, 5, 25)
	res, err := eng.RunJob(faultJob(3, 30e9), localitySched{}, SingleConn{})
	if err != nil {
		t.Fatalf("partitioned run failed: %v", err)
	}
	if res.Recoveries != 0 {
		t.Errorf("Recoveries = %d for a pure partition, want 0", res.Recoveries)
	}
	if res.JCTSeconds < 25 {
		t.Errorf("JCT %.1f < partition end 25: the stall did not bite", res.JCTSeconds)
	}
	if res.LostBytes != 0 {
		t.Errorf("LostBytes = %.0f for a pure partition, want 0", res.LostBytes)
	}
}

// TestRecoveryDisabledFailsFast: without recovery a fault must fail
// the run promptly and descriptively through both entry points — and
// stop every outstanding flow, so nothing leaks into the substrate.
func TestRecoveryDisabledFailsFast(t *testing.T) {
	sim := frozenSim(3, 25)
	eng := NewEngine(sim, cost.DefaultRates())
	killDC(sim, 2, 5)
	_, err := eng.RunJob(faultJob(3, 30e9), localitySched{}, SingleConn{})
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Errorf("RunJob error = %v, want a fault-failure error", err)
	}
	if n := sim.ActiveFlows(); n != 0 {
		t.Errorf("RunJob leaked %d active flows after its error", n)
	}

	sim2 := frozenSim(3, 25)
	eng2 := NewEngine(sim2, cost.DefaultRates())
	killDC(sim2, 2, 5)
	_, err = eng2.RunJobSet([]JobRun{{Job: faultJob(3, 30e9), Sched: localitySched{}, Policy: SingleConn{}}})
	if err == nil || !strings.Contains(err.Error(), "enable Engine.Recovery") {
		t.Errorf("JobSet error = %v, want the recovery-disabled abort", err)
	}
	if n := sim2.ActiveFlows(); n != 0 {
		t.Errorf("JobSet abort leaked %d active flows", n)
	}
}

// TestRunJobTimeoutStopsFlows is the leak-audit regression for the
// transfer watchdog: a timed-out transfer phase must name the flows
// still pending and leave none of them alive in the substrate, where
// they would pollute any co-tenant's allocator state.
func TestRunJobTimeoutStopsFlows(t *testing.T) {
	sim := frozenSim(3, 26)
	eng := NewEngine(sim, cost.DefaultRates())
	eng.MaxStageTransferS = 50
	sim.PartitionDC(1, 0, 1e9) // permanent: flows to/from DC 1 never drain
	_, err := eng.RunJob(faultJob(3, 30e9), localitySched{}, SingleConn{})
	if err == nil {
		t.Fatal("undrainable transfer did not error")
	}
	if !strings.Contains(err.Error(), "pending") {
		t.Errorf("timeout error %q does not name the pending flows", err)
	}
	if n := sim.ActiveFlows(); n != 0 {
		t.Errorf("timeout leaked %d active flows into the substrate", n)
	}
}

// failAtSched behaves like localitySched until stage `at`, where it
// returns a mis-shaped placement and forces the set to abort.
type failAtSched struct{ at int }

func (failAtSched) Name() string { return "fail-at" }
func (f failAtSched) Place(si int, _ Stage, layout []float64) Placement {
	if si >= f.at {
		return Placement{1}
	}
	return LocalityPlacement(layout)
}

// TestJobSetAbortLeakAudit: a job aborting between stages (the compute
// → startStage transition, where its load is already released but its
// phase still says compute) must leave the substrate exactly as the
// co-tenants had it: no flows, and external CPU load untouched.
func TestJobSetAbortLeakAudit(t *testing.T) {
	sim := frozenSim(3, 27)
	eng := NewEngine(sim, cost.DefaultRates())
	const base = 0.4
	for v := 0; v < sim.NumVMs(); v++ {
		sim.SetCPULoad(substrate.VMID(v), base)
	}
	_, err := eng.RunJobSet([]JobRun{
		{Job: faultJob(3, 3e9), Sched: failAtSched{at: 1}, Policy: SingleConn{}},
		{Job: faultJob(3, 30e9), Sched: localitySched{}, Policy: SingleConn{}},
	})
	if err == nil {
		t.Fatal("failing scheduler did not abort the set")
	}
	if n := sim.ActiveFlows(); n != 0 {
		t.Errorf("abort leaked %d active flows", n)
	}
	for v := 0; v < sim.NumVMs(); v++ {
		if got := sim.VMStats(substrate.VMID(v)).CPULoad; math.Abs(got-base) > 1e-9 {
			t.Errorf("VM %d load after abort = %v, want the co-tenant base %v", v, got, base)
		}
	}
}

// TestLoadHoldReleaseIdempotent pins the fix for the double-release
// bug: releasing a job's load twice must not subtract a co-tenant's
// live contribution from the ledger.
func TestLoadHoldReleaseIdempotent(t *testing.T) {
	sim := frozenSim(2, 28)
	eng := NewEngine(sim, cost.DefaultRates())
	s := &JobSet{eng: eng}
	tenant := &jobState{loadDeltas: eng.ledger().uniform(nil, 0.3)}
	victim := &jobState{loadDeltas: eng.ledger().uniform(nil, 0.5)}
	s.holdLoad(tenant)
	s.holdLoad(victim)
	s.releaseLoad(victim)
	s.releaseLoad(victim) // double release: must be inert
	if got := sim.VMStats(0).CPULoad; math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("co-tenant load after double release = %v, want 0.3", got)
	}
	s.releaseLoad(tenant)
	if got := sim.VMStats(0).CPULoad; math.Abs(got) > 1e-9 {
		t.Fatalf("residual load %v after all releases", got)
	}
}

// TestRecoveryEnabledFaultFreeIdentical locks the opt-in contract:
// with no fault in the schedule, enabling recovery changes nothing
// observable — RunJob delegates to the equivalent JobSet path (same
// flows at the same instants, up to clock-advance rounding) and no
// recovery machinery ever engages.
func TestRecoveryEnabledFaultFreeIdentical(t *testing.T) {
	job := faultJob(3, 12e9)
	simA := frozenSim(3, 29)
	engA := NewEngine(simA, cost.DefaultRates())
	want, err := engA.RunJob(job, localitySched{}, SingleConn{})
	if err != nil {
		t.Fatal(err)
	}
	simB := frozenSim(3, 29)
	engB := NewEngine(simB, cost.DefaultRates())
	engB.Recovery.Enabled = true
	got, err := engB.RunJob(job, localitySched{}, SingleConn{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.JCTSeconds-want.JCTSeconds) > 1e-9*want.JCTSeconds || got.WANBytes != want.WANBytes {
		t.Errorf("fault-free recovery run diverged: JCT %v/%v WAN %v/%v",
			got.JCTSeconds, want.JCTSeconds, got.WANBytes, want.WANBytes)
	}
	if got.Recoveries != 0 || got.LostBytes != 0 {
		t.Errorf("fault-free run recorded recovery activity: %d waves, %.0f lost", got.Recoveries, got.LostBytes)
	}
}
