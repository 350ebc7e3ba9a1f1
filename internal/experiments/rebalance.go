package experiments

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/geo"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/tracesim"
	"github.com/wanify/wanify/internal/workloads"
)

// --- rebalance / rebalance-trace: mid-job re-gauging & rebalancing ---
//
// The paper's headline is *runtime* gauging, yet its evaluation (and
// every driver above) computes the global plan once per job. These two
// extension drivers measure what the internal/runtime controller buys
// when WAN conditions shift mid-shuffle:
//
//   - rebalance runs on netsim with an injected fluctuation: partway
//     into the shuffle every link out of US East degrades to 45% of
//     its nominal per-connection cap for a few minutes (the transient
//     episode shape of §2.2), then recovers.
//   - rebalance-trace replays the bundled cloud4 recording, whose
//     US East -> EU West link drops to ~45% during its 600-900 s
//     congestion episode. The job is launched just before the episode
//     so the one-shot plan is built on pre-congestion bandwidths and
//     goes stale exactly as the paper warns.
//
// Each driver runs the same job twice under identical network
// histories: once with the static one-shot plan (controller off) and
// once with mid-job re-gauging (controller on), reporting completion
// times, the replan history and the re-gauging measurement bill.

func init() {
	Registry["rebalance"] = func(p Params) (Result, error) { return Rebalance(p) }
	Registry["rebalance-trace"] = func(p Params) (Result, error) { return RebalanceTrace(p) }
}

// rebalanceRuntime is the controller configuration both drivers use:
// 15-second aggregation epochs, two-epoch hysteresis and a 30-second
// cooldown — reactive enough to catch a minutes-long episode, damped
// enough that the stable phases replan nothing.
func rebalanceRuntime() rgauge.Config {
	return rgauge.Config{
		Enabled:          true,
		EpochS:           15,
		HysteresisEpochs: 2,
		CooldownS:        30,
	}
}

// RebalanceVariant is one compared execution.
type RebalanceVariant struct {
	Variant        string // static | regauge
	JCTSeconds     float64
	MinShuffleMbps float64
	WANBytes       float64
	Replans        int
	DriftEpochs    int
	Events         []string
	RegaugeBytes   float64 // probe traffic spent on re-gauge snapshots
}

// RebalanceResult compares the static one-shot plan with mid-job
// re-gauging under one episode scenario.
type RebalanceResult struct {
	Scenario string
	Episode  string
	Rows     []RebalanceVariant
	// ImprovementPct is the JCT reduction of regauge vs static
	// (positive = re-gauging finished sooner).
	ImprovementPct float64
}

// String renders the comparison.
func (r *RebalanceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mid-job re-gauging on %s (%s)\n", r.Scenario, r.Episode)
	fmt.Fprintf(&b, "%-10s%12s%14s%12s%10s%8s\n", "plan", "JCT(s)", "minBW(Mbps)", "WAN(GB)", "replans", "drift")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s%12.1f%14.1f%12.2f%10d%8d\n",
			row.Variant, row.JCTSeconds, row.MinShuffleMbps, row.WANBytes/1e9, row.Replans, row.DriftEpochs)
	}
	for _, row := range r.Rows {
		for _, ev := range row.Events {
			fmt.Fprintf(&b, "  replan %s\n", ev)
		}
		if row.RegaugeBytes > 0 {
			fmt.Fprintf(&b, "  re-gauge probe traffic: %.1f MB\n", row.RegaugeBytes/1e6)
		}
	}
	fmt.Fprintf(&b, "re-gauged plan completes %.1f%% sooner than the static plan\n", r.ImprovementPct)
	return b.String()
}

// rebalanceCompare runs job on WANify-enabled Tetrium launched at
// startAt, once with the static one-shot plan and once re-gauging.
func rebalanceCompare(p Params, scenario, episode string, mk func(seed uint64) (substrate.Cluster, error), startAt float64, job spark.Job) (*RebalanceResult, error) {
	res := &RebalanceResult{Scenario: scenario, Episode: episode}
	for _, regauge := range []bool{false, true} {
		t := wanifyTrial(p, mk, startAt)
		if regauge {
			t.runtime = rebalanceRuntime()
		}
		run, ctl, err := t.run(job)
		if err != nil {
			return nil, err
		}
		v := RebalanceVariant{
			Variant:        "static",
			JCTSeconds:     run.JCTSeconds,
			MinShuffleMbps: run.MinShuffleMbps,
			WANBytes:       run.WANBytes,
		}
		if ctl != nil {
			v.Variant = "regauge"
			v.Replans = ctl.Replans()
			v.DriftEpochs = ctl.DriftEpochs()
			for _, ev := range ctl.Events() {
				v.Events = append(v.Events, ev.String())
			}
			v.RegaugeBytes = ctl.TotalCost().BytesTransferred
		}
		res.Rows = append(res.Rows, v)
	}
	res.ImprovementPct = pct(res.Rows[0].JCTSeconds, res.Rows[1].JCTSeconds)
	return res, nil
}

// Rebalance is the netsim episode scenario: a 100 GB TeraSort whose
// shuffle is hit 60 seconds in by a 4-minute degradation of every link
// out of US East.
func Rebalance(p Params) (*RebalanceResult, error) {
	return rebalanceCompare(p.withDefaults(),
		"netsim 8-DC testbed",
		fmt.Sprintf("US East egress cut to %.0f%% during t=[%.0f, %.0f]s", egressCutFactor*100, float64(egressCutStart), float64(egressCutEnd)),
		egressCutTestbed, queryStart, workloads.TeraSort(workloads.UniformInput(len(geo.Testbed()), 100e9)))
}

// The rebalance episode: every link out of US East at egressCutFactor of
// its nominal per-connection cap during [egressCutStart, egressCutEnd).
const (
	egressCutStart  = queryStart + 60
	egressCutEnd    = egressCutStart + 240
	egressCutFactor = 0.45
)

// egressCutTestbed is the netsim testbed under the rebalance episode.
func egressCutTestbed(seed uint64) (substrate.Cluster, error) {
	sim := netsimTestbed(seed)
	base := make([]float64, sim.NumDCs())
	for j := 1; j < sim.NumDCs(); j++ {
		base[j] = sim.PerConnCapMbps(0, j)
	}
	sim.After(egressCutStart, func(float64) {
		for j := 1; j < sim.NumDCs(); j++ {
			sim.SetPerConnCap(0, j, base[j]*egressCutFactor)
		}
	})
	sim.After(egressCutEnd, func(float64) {
		for j := 1; j < sim.NumDCs(); j++ {
			sim.SetPerConnCap(0, j, base[j])
		}
	})
	return sim, nil
}

// RebalanceTrace is the cloud4 scenario: the job launches at t=560 s,
// 40 seconds before the recording's US East -> EU West congestion
// episode, so the one-shot plan is built on pre-congestion bandwidths.
func RebalanceTrace(p Params) (*RebalanceResult, error) {
	p = p.withDefaults()
	const startAt = 560.0
	return rebalanceCompare(p,
		"trace:cloud4 4-DC replay",
		"recorded US East->EU West congestion episode at t=[600, 900]s",
		cloud4Replay, startAt, workloads.TeraSort(workloads.UniformInput(tracesim.Cloud4().N(), 60e9)))
}

// cloud4Replay replays the bundled cloud4 recording.
func cloud4Replay(seed uint64) (substrate.Cluster, error) {
	return tracesim.New(tracesim.Config{Trace: tracesim.Cloud4(), Spec: substrate.T2Medium, Seed: seed})
}
