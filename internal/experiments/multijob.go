package experiments

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/tracesim"
	"github.com/wanify/wanify/internal/workloads"
)

// --- multijob / multijob-trace: concurrent jobs over one shared WAN ---
//
// The paper's motivating observation — achievable WAN bandwidth shifts
// at runtime because the WAN is shared infrastructure — is a multi-
// tenant story, yet every driver above runs exactly one job per
// cluster. These two drivers measure what happens when the tenants are
// our own jobs and WANify arbitrates among them:
//
//   - multijob runs three concurrent jobs (a TeraSort and two TPC-DS
//     queries, staggered starts) on the netsim 8-DC testbed and
//     compares: each job alone (zero-contention floor), all jobs
//     deployed with the WHOLE global window each (the naive
//     oversubscribed deployment every single-tenant system produces),
//     and the partitioned deployments (fair, priority,
//     bytes-remaining) where the per-pair windows split across jobs
//     (optimize.PartitionPlan) so their combined connection counts
//     respect the optimizer's congestion knee.
//   - multijob-trace replays the bundled cloud4 recording with two
//     concurrent jobs launched just before its 600–900 s US East ->
//     EU West congestion episode, and compares the fair-partitioned
//     deployment with and without the SHARED re-gauging controller
//     (one controller arbitrating for all jobs: rates aggregated
//     across jobs per pair, one re-gauge, per-job window swaps).

func init() {
	Registry["multijob"] = func(p Params) (Result, error) { return Multijob(p) }
	Registry["multijob-trace"] = func(p Params) (Result, error) { return MultijobTrace(p) }
}

// MultijobJobRow is one job's outcome under one sharing variant.
type MultijobJobRow struct {
	Job        string
	JCTSeconds float64
	MinBW      float64
	WANBytes   float64
}

// MultijobVariant is one compared deployment of the whole job set.
type MultijobVariant struct {
	Name      string
	MakespanS float64
	Rows      []MultijobJobRow
	// Replans / RegaugeBytes describe the shared controller (zero when
	// the variant runs without one).
	Replans      int
	RegaugeBytes float64
}

// MultijobResult compares sharing policies for a concurrent job set.
type MultijobResult struct {
	Scenario string
	Jobs     string
	Variants []MultijobVariant
}

// String renders the comparison.
func (r *MultijobResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-job WAN sharing on %s (%s)\n", r.Scenario, r.Jobs)
	fmt.Fprintf(&b, "%-14s%-12s%12s%14s%12s\n", "variant", "job", "JCT(s)", "minBW(Mbps)", "WAN(GB)")
	for _, v := range r.Variants {
		for _, row := range v.Rows {
			fmt.Fprintf(&b, "%-14s%-12s%12.1f%14.1f%12.2f\n",
				v.Name, row.Job, row.JCTSeconds, row.MinBW, row.WANBytes/1e9)
		}
		fmt.Fprintf(&b, "%-14s%-12s%12.1f", v.Name, "makespan", v.MakespanS)
		if v.Replans > 0 || v.RegaugeBytes > 0 {
			fmt.Fprintf(&b, "   (replans=%d, probe traffic %.1f MB)", v.Replans, v.RegaugeBytes/1e6)
		}
		b.WriteByte('\n')
	}
	if len(r.Variants) >= 2 {
		base := r.Variants[1] // the oversubscribed / static deployment
		for _, v := range r.Variants[2:] {
			fmt.Fprintf(&b, "%s makespan %+.1f%% vs %s\n", v.Name, -pct(base.MakespanS, v.MakespanS), base.Name)
		}
	}
	return b.String()
}

// multijobDeploy is one concurrent deployment of the job set: a
// sharing policy (oversubscribed when whole is set), optionally with
// the shared re-gauging controller.
type multijobDeploy struct {
	name           string
	share          optimize.ShareMode
	whole, regauge bool
}

// multijobCompare fills res with the solo floor — each job alone on a
// fresh, identically-seeded cluster — then each concurrent deployment
// of the named jobs as one trial.
func multijobCompare(p Params, res *MultijobResult, mk func(seed uint64) (substrate.Cluster, error), startAt float64,
	names []string, jobs []trialJob, deploys []multijobDeploy) (*MultijobResult, error) {
	solo := MultijobVariant{Name: "solo"}
	for i, j := range jobs {
		run, _, err := wanifyTrial(p, mk, startAt).run(j.job)
		if err != nil {
			return nil, err
		}
		solo.Rows = append(solo.Rows, MultijobJobRow{
			Job: names[i], JCTSeconds: run.JCTSeconds,
			MinBW: run.MinShuffleMbps, WANBytes: run.WANBytes,
		})
		solo.MakespanS = max(solo.MakespanS, run.JCTSeconds) // jobs run in separate universes: max, not sum
	}
	res.Variants = append(res.Variants, solo)
	for _, d := range deploys {
		t := wanifyTrial(p, mk, startAt)
		t.share, t.whole = d.share, d.whole
		if d.regauge {
			t.runtime = rebalanceRuntime()
		}
		set, ctl, err := t.runSet(jobs...)
		if err != nil {
			return nil, err
		}
		v := MultijobVariant{Name: d.name, MakespanS: set.MakespanS}
		for i, r := range set.Results {
			v.Rows = append(v.Rows, MultijobJobRow{
				Job: names[i], JCTSeconds: r.JCTSeconds,
				MinBW: r.MinShuffleMbps, WANBytes: r.WANBytes,
			})
		}
		if ctl != nil {
			v.Replans = ctl.Replans()
			v.RegaugeBytes = ctl.TotalCost().BytesTransferred
		}
		res.Variants = append(res.Variants, v)
	}
	return res, nil
}

// Multijob is the netsim contention scenario: three staggered jobs on
// the 8-DC testbed — a heavy TeraSort entering first and two TPC-DS
// queries behind it, the lightest with the highest priority (the
// priority variant shows it cutting ahead) — under solo /
// oversubscribed / fair / priority / bytes-remaining deployments.
func Multijob(p Params) (*MultijobResult, error) {
	p = p.withDefaults()
	n := len(geo.Testbed())
	q78, err := workloads.TPCDS(78, workloads.UniformInput(n, 20e9))
	if err != nil {
		return nil, err
	}
	q95, err := workloads.TPCDS(95, workloads.UniformInput(n, 16e9))
	if err != nil {
		return nil, err
	}
	res := &MultijobResult{
		Scenario: "netsim 8-DC testbed",
		Jobs:     "terasort + tpcds-78 (+30s) + tpcds-95 (+60s, priority 4)",
	}
	return multijobCompare(p, res, func(seed uint64) (substrate.Cluster, error) { return netsimTestbed(seed), nil }, queryStart,
		[]string{"terasort", "tpcds-78", "tpcds-95"}, []trialJob{
			{job: workloads.TeraSort(workloads.UniformInput(n, 30e9)), priority: 1},
			{job: q78, delayS: 30, priority: 1},
			{job: q95, delayS: 60, priority: 4},
		}, []multijobDeploy{
			{name: "whole", share: optimize.ShareFair, whole: true},
			{name: "fair", share: optimize.ShareFair},
			{name: "priority", share: optimize.SharePriority},
			{name: "remaining", share: optimize.ShareRemaining},
		})
}

// MultijobTrace is the cloud4 scenario: two concurrent jobs launched
// 40 s before the recorded congestion episode, fair-partitioned, with
// and without the shared re-gauging controller.
func MultijobTrace(p Params) (*MultijobResult, error) {
	p = p.withDefaults()
	const startAt = 560.0
	n := tracesim.Cloud4().N()
	q95, err := workloads.TPCDS(95, workloads.UniformInput(n, 16e9))
	if err != nil {
		return nil, err
	}
	res := &MultijobResult{
		Scenario: "trace:cloud4 4-DC replay",
		Jobs:     "terasort + tpcds-95 (+20s), recorded congestion episode at t=[600, 900]s",
	}
	return multijobCompare(p, res, cloud4Replay, startAt, []string{"terasort", "tpcds-95"}, []trialJob{
		{job: workloads.TeraSort(workloads.UniformInput(n, 24e9)), priority: 1},
		{job: q95, delayS: 20, priority: 1},
	}, []multijobDeploy{
		{name: "static", share: optimize.ShareFair},
		{name: "regauge", share: optimize.ShareFair, regauge: true},
	})
}
