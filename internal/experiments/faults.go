package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/workloads"
)

// --- failover / chaos: fault injection and recovery ---
//
// The paper's testbed never loses a machine, but a geo-distributed
// deployment does: spot reclaims, AZ incidents, inter-region
// partitions. These two drivers measure the fault model the substrate
// contract now carries (substrate.FaultSchedule) against the recovery
// machinery built above it:
//
//   - failover kills every VM of one DC mid-shuffle and compares the
//     full recovery stack (spark re-replication + controller
//     evacuation replan) against the no-recovery baseline, which
//     loses the in-flight bytes and fails the job.
//   - chaos soaks the engine under randomized-but-seeded fault
//     schedules (VM kills, a DC partition, connection resets) and
//     checks the conservation invariants hold on every one: no byte
//     silently vanishes, recovery re-routes exactly what was lost,
//     and the job's output volume is conserved.

func init() {
	Registry["failover"] = func(p Params) (Result, error) { return Failover(p) }
	Registry["chaos"] = func(p Params) (Result, error) { return Chaos(p) }
}

// failoverVictimDC is the data center failover kills. DC 2 holds an
// even share of the uniform input, so its death voids both in-flight
// transfers and resident stage outputs.
const failoverVictimDC = 2

// FailoverVariant is one compared execution of the failover scenario.
type FailoverVariant struct {
	Variant    string // norecovery | recovery
	Completed  bool
	Err        string // the failure the norecovery baseline reports
	JCTSeconds float64
	WANBytes   float64
	LostBytes  float64
	RecoveredB float64
	Recoveries int
	Replans    int
	Events     []string
}

// FailoverResult compares recovery on vs off under one DC death.
type FailoverResult struct {
	Scenario string
	Fault    string
	Rows     []FailoverVariant
}

// String renders the comparison.
func (r *FailoverResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DC failover on %s (%s)\n", r.Scenario, r.Fault)
	fmt.Fprintf(&b, "%-12s%-10s%10s%10s%10s%10s%7s%9s\n",
		"variant", "outcome", "JCT(s)", "WAN(GB)", "lost(GB)", "rcov(GB)", "waves", "replans")
	for _, row := range r.Rows {
		outcome := "ok"
		if !row.Completed {
			outcome = "FAILED"
		}
		fmt.Fprintf(&b, "%-12s%-10s%10.1f%10.2f%10.2f%10.2f%7d%9d\n",
			row.Variant, outcome, row.JCTSeconds, row.WANBytes/1e9,
			row.LostBytes/1e9, row.RecoveredB/1e9, row.Recoveries, row.Replans)
	}
	for _, row := range r.Rows {
		if row.Err != "" {
			fmt.Fprintf(&b, "  %s: %s\n", row.Variant, row.Err)
		}
		for _, ev := range row.Events {
			fmt.Fprintf(&b, "  %s replan %s\n", row.Variant, ev)
		}
	}
	return b.String()
}

// Failover is the DC-death scenario: a TeraSort on the 8-DC testbed
// loses all of DC 2 sixty seconds into its shuffle, with and without
// the recovery stack (spark recovery + the evacuation-capable
// re-gauging controller).
func Failover(p Params) (*FailoverResult, error) {
	p = p.withDefaults()
	res := &FailoverResult{
		Scenario: "netsim 8-DC testbed",
		Fault:    fmt.Sprintf("all VMs of dc%d killed at t=%.0fs, job at t=%.0fs", failoverVictimDC, queryStart+60, queryStart),
	}
	job := workloads.TeraSort(workloads.UniformInput(len(geo.Testbed()), 100e9))
	for _, recover := range []bool{false, true} {
		t := wanifyTrial(p, func(seed uint64) (substrate.Cluster, error) {
			sim := netsimTestbed(seed)
			var schedule substrate.FaultSchedule
			for _, vm := range sim.VMsOfDC(failoverVictimDC) {
				schedule = append(schedule, substrate.Fault{Kind: substrate.FaultKillVM, VM: vm, At: queryStart + 60})
			}
			schedule.Apply(sim)
			return sim, nil
		}, 0)
		v := FailoverVariant{Variant: "norecovery"}
		if recover {
			t.runtime, t.recover, v.Variant = rebalanceRuntime(), true, "recovery"
		}
		tr, err := t.setup(trialJob{job: job})
		if err != nil {
			return nil, err
		}
		set, ctl, err := tr.run()
		if err != nil {
			// The baseline's expected fate: the fault error is the result.
			v.Err = err.Error()
			res.Rows = append(res.Rows, v)
			continue
		}
		run := set.Results[0]
		v.Completed = true
		v.JCTSeconds, v.WANBytes = run.JCTSeconds, run.WANBytes
		v.LostBytes, v.RecoveredB, v.Recoveries = run.LostBytes, run.RecoveredBytes, run.Recoveries
		if ctl != nil {
			v.Replans = ctl.Replans()
			for _, ev := range ctl.Events() {
				v.Events = append(v.Events, ev.String())
			}
		}
		res.Rows = append(res.Rows, v)
	}
	return res, nil
}

// --- chaos ---

// chaos cluster shape: 6 DCs x 2 VMs, so a single VM kill and a whole-
// DC death are distinct fault classes.
const (
	chaosDCs      = 6
	chaosVMsPerDC = 2
	chaosStart    = 50.0
)

// ChaosOutcome is one soak run under one generated fault schedule.
type ChaosOutcome struct {
	SchedSeed  uint64
	Schedule   substrate.FaultSchedule
	Completed  bool
	Err        string
	JCTSeconds float64
	WANBytes   float64
	DeliveredB float64
	LostBytes  float64
	RecoveredB float64
	RecomputeS float64
	OutputB    float64
	Recoveries int
	// Violations lists the conservation invariants the run broke
	// (empty = the run passed).
	Violations []string
}

// String renders one soak row plus its schedule.
func (o ChaosOutcome) String() string {
	var b strings.Builder
	outcome := "ok"
	if !o.Completed {
		outcome = "FAILED"
	}
	status := "pass"
	if len(o.Violations) > 0 {
		status = "VIOLATED " + strings.Join(o.Violations, ",")
	}
	fmt.Fprintf(&b, "seed=%-6d %-7s JCT=%8.1fs WAN=%7.2fGB lost=%6.2fGB rcov=%6.2fGB waves=%d %s\n",
		o.SchedSeed, outcome, o.JCTSeconds, o.WANBytes/1e9, o.LostBytes/1e9, o.RecoveredB/1e9, o.Recoveries, status)
	fmt.Fprintf(&b, "  faults: %s", o.Schedule)
	if o.Err != "" {
		fmt.Fprintf(&b, "\n  error: %s", o.Err)
	}
	return b.String()
}

// ChaosResult is the rendered soak table.
type ChaosResult struct {
	Scenario string
	Rows     []ChaosOutcome
}

// String renders the soak report.
func (r *ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos soak on %s\n", r.Scenario)
	passed := 0
	for _, row := range r.Rows {
		b.WriteString(row.String())
		b.WriteByte('\n')
		if row.Completed && len(row.Violations) == 0 {
			passed++
		}
	}
	fmt.Fprintf(&b, "%d/%d schedules completed with all invariants intact\n", passed, len(r.Rows))
	return b.String()
}

// chaosSchedule draws a bounded randomized fault schedule: 1-3 VM
// kills, at most one DC partition and up to three connection resets,
// all inside the job's early window. The draw order is fixed, so a
// schedule is fully determined by its seed.
func chaosSchedule(rng *simrand.Source, sim *netsim.Sim) substrate.FaultSchedule {
	var s substrate.FaultSchedule
	var vms []substrate.VMID
	for dc := 0; dc < sim.NumDCs(); dc++ {
		vms = append(vms, sim.VMsOfDC(dc)...)
	}
	kills := 1 + rng.IntN(3)
	for _, idx := range rng.Perm(len(vms))[:kills] {
		s = append(s, substrate.Fault{
			Kind: substrate.FaultKillVM, VM: vms[idx],
			At: chaosStart + rng.Uniform(5, 90),
		})
	}
	if rng.Bool(0.5) {
		at := chaosStart + rng.Uniform(5, 60)
		s = append(s, substrate.Fault{
			Kind: substrate.FaultPartitionDC, DC: rng.IntN(sim.NumDCs()),
			At: at, Until: at + rng.Uniform(15, 45),
		})
	}
	resets := rng.IntN(4)
	for i := 0; i < resets; i++ {
		src := rng.IntN(sim.NumDCs())
		dst := (src + 1 + rng.IntN(sim.NumDCs()-1)) % sim.NumDCs()
		s = append(s, substrate.Fault{
			Kind: substrate.FaultResetPair, SrcDC: src, DstDC: dst,
			At: chaosStart + rng.Uniform(5, 90),
		})
	}
	return s
}

// ChaosRun executes one soak: generate the schedule for schedSeed,
// run a TeraSort with recovery enabled underneath it, and check the
// conservation invariants. The whole run — cluster weather, schedule
// and recovery decisions — is deterministic in schedSeed.
func ChaosRun(schedSeed uint64) ChaosOutcome {
	var sim *netsim.Sim
	var schedule substrate.FaultSchedule
	cluster := func(seed uint64) (substrate.Cluster, error) {
		cfg := netsim.UniformCluster(geo.TestbedSubset(chaosDCs), substrate.T2Medium, seed)
		for i := range cfg.VMs {
			for len(cfg.VMs[i]) < chaosVMsPerDC {
				cfg.VMs[i] = append(cfg.VMs[i], substrate.T2Medium)
			}
		}
		sim = netsim.NewSim(cfg)
		schedule = chaosSchedule(simrand.Derive(schedSeed, "chaos-schedule"), sim)
		schedule.Apply(sim)
		return sim, nil
	}
	job := workloads.TeraSort(workloads.UniformInput(chaosDCs, 24e9))
	// The oracle belief is read, and the job launched, at chaosStart.
	res, _, err := trial{cluster: cluster, seed: schedSeed, start: chaosStart + 1, belief: beliefOracle,
		conns: connUniform, k: 4, recover: true, system: "tetrium", label: "tetrium(oracle)"}.run(job)

	out := ChaosOutcome{SchedSeed: schedSeed, Schedule: schedule}
	if err != nil {
		out.Err = err.Error()
		if sim.ActiveFlows() != 0 {
			out.Violations = append(out.Violations, "flow-leak")
		}
		return out
	}
	out.Completed = true
	out.JCTSeconds = res.JCTSeconds
	out.WANBytes = res.WANBytes
	out.LostBytes = res.LostBytes
	out.RecoveredB = res.RecoveredBytes
	out.RecomputeS = res.RecomputeS
	out.OutputB = res.OutputBytes
	out.Recoveries = res.Recoveries
	for _, st := range res.Stages {
		out.DeliveredB += st.DeliveredBytes
	}
	out.Violations = chaosViolations(sim, out, job)
	return out
}

// chaosViolations checks the soak invariants on a completed run:
//
//   - lost-accounting: every launched byte is either delivered or
//     counted lost — nothing vanishes silently.
//   - recovery-balance: recovery re-routes (or re-executes) exactly
//     the bytes the faults voided.
//   - output-conservation: the job's final resident volume equals
//     input x the product of stage selectivities, faults or not.
//   - flow-leak: the substrate is quiet after the job returns.
func chaosViolations(sim *netsim.Sim, o ChaosOutcome, job spark.Job) []string {
	var v []string
	tol := 64 + 1e-6*o.WANBytes
	if o.LostBytes < o.WANBytes-o.DeliveredB-tol {
		v = append(v, "lost-accounting")
	}
	if math.Abs(o.RecoveredB-o.LostBytes) > tol {
		v = append(v, "recovery-balance")
	}
	want := job.TotalInputBytes()
	for _, st := range job.Stages {
		want *= st.Selectivity
	}
	if math.Abs(o.OutputB-want) > 1e-6*want+1 {
		v = append(v, "output-conservation")
	}
	if sim.ActiveFlows() != 0 {
		v = append(v, "flow-leak")
	}
	return v
}

// Chaos renders a small soak (five schedules derived from the params
// seed); the full-width soak lives in TestChaosSoak.
func Chaos(p Params) (*ChaosResult, error) {
	p = p.withDefaults()
	res := &ChaosResult{
		Scenario: fmt.Sprintf("netsim %d-DC x %d-VM cluster, terasort with recovery enabled", chaosDCs, chaosVMsPerDC),
	}
	for i := uint64(0); i < 5; i++ {
		res.Rows = append(res.Rows, ChaosRun(p.Seed*1000+i))
	}
	return res, nil
}
