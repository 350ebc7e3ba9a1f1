package experiments

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/geo"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/workloads"
)

// --- degrade: poisoned snapshots vs failure-aware gauging ---
//
// The rebalance drivers show what mid-job re-gauging buys when the WAN
// *shifts*; this one shows what it costs when the WAN *breaks the
// measurement itself*. Three DCs of the 8-DC testbed go dark moments
// before the controller's stale-plan re-gauge opens its probe window,
// and a connection reset strikes a healthy pair mid-snapshot:
//
//   - clean never sees the faults — the reference JCT.
//   - naive runs the legacy controller: the snapshot returns near-zero
//     rates for every pair touching a dark DC, the optimizer dutifully
//     replans around bandwidth that is merely unmeasured, and the job
//     drags that poisoned plan long after the blackout heals.
//   - hardened runs the same schedule with failure-aware gauging: the
//     partial snapshot tags the dark pairs Unmeasurable, coverage falls
//     below the replan threshold, the controller refuses the swap (and
//     eventually opens its circuit breaker), and the pre-fault plan —
//     still correct for the post-heal network — keeps the job near the
//     clean JCT.
//
// All three variants run the identical TeraSort with spark recovery
// enabled, so the only degree of freedom is how the controller treats a
// snapshot it cannot trust.

func init() {
	Registry["degrade"] = func(p Params) (Result, error) { return Degrade(p) }
}

// The fault timeline is cut against the controller's stale re-gauge:
// enabled just before queryStart with StaleAfterS=45 and 15 s epochs,
// the controller opens its 1 s probe window at t=745. The blackout
// lands just before the window so dark pairs measure zero for its
// entire duration, and the pair reset lands inside the window, killing
// an in-flight probe.
const (
	degradeBlackoutStart = queryStart + 43.8 // 743.8: just before the probe window
	degradeBlackoutEnd   = queryStart + 100  // 800: heals mid-job
	degradeResetAt       = queryStart + 45.4 // 745.4: mid-snapshot probe kill
	degradeResetSrc      = 4
	degradeResetDst      = 5
)

// degradeDarkDCs are the partitioned DCs; 3 of 8 dark leaves 20 of 56
// pairs measurable — coverage 0.36, well under the 0.6 replan floor.
var degradeDarkDCs = []int{1, 2, 3}

// degradeSchedule is the shared fault script for the naive and hardened
// variants.
func degradeSchedule() substrate.FaultSchedule {
	var s substrate.FaultSchedule
	for _, dc := range degradeDarkDCs {
		s = append(s, substrate.Fault{
			Kind: substrate.FaultPartitionDC, DC: dc,
			At: degradeBlackoutStart, Until: degradeBlackoutEnd,
		})
	}
	s = append(s, substrate.Fault{
		Kind: substrate.FaultResetPair, SrcDC: degradeResetSrc, DstDC: degradeResetDst,
		At: degradeResetAt,
	})
	return s
}

// degradeRuntime is the controller configuration: the rebalance cadence
// plus a 45 s staleness bound so a re-gauge is guaranteed during the
// blackout, with the hardened machinery toggled per variant.
func degradeRuntime(hardened bool) rgauge.Config {
	return rgauge.Config{
		Enabled:          true,
		EpochS:           15,
		HysteresisEpochs: 2,
		CooldownS:        30,
		StaleAfterS:      45,
		Hardened:         hardened,
	}
}

// DegradeVariant is one compared execution.
type DegradeVariant struct {
	Variant      string // clean | naive | hardened
	JCTSeconds   float64
	WANBytes     float64
	Replans      int
	Rejected     int // snapshots refused for low coverage
	Retries      int // probe retries spent across hardened snapshots
	Unmeasurable int // pair outcomes tagged Unmeasurable
	Fused        int // unmeasurable pairs filled with their last-known-good value
	Events       []string
	Incidents    []string
}

// DegradeResult compares the three variants under one fault script.
type DegradeResult struct {
	Scenario string
	Fault    string
	Rows     []DegradeVariant
	// HardenedVsNaivePct is the JCT reduction of hardened vs naive
	// (positive = failure-aware gauging finished sooner).
	HardenedVsNaivePct float64
	// HardenedVsCleanPct is how far hardened lands from the no-fault
	// reference (positive = slower than clean, the unavoidable stall).
	HardenedVsCleanPct float64
}

// String renders the comparison.
func (r *DegradeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Poisoned-snapshot degradation on %s\n(%s)\n", r.Scenario, r.Fault)
	fmt.Fprintf(&b, "%-10s%12s%12s%9s%10s%9s%8s%7s\n",
		"variant", "JCT(s)", "WAN(GB)", "replans", "rejected", "retries", "unmeas", "fused")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s%12.1f%12.2f%9d%10d%9d%8d%7d\n",
			row.Variant, row.JCTSeconds, row.WANBytes/1e9,
			row.Replans, row.Rejected, row.Retries, row.Unmeasurable, row.Fused)
	}
	for _, row := range r.Rows {
		for _, ev := range row.Events {
			fmt.Fprintf(&b, "  %s replan %s\n", row.Variant, ev)
		}
		for _, in := range row.Incidents {
			fmt.Fprintf(&b, "  %s incident %s\n", row.Variant, in)
		}
	}
	fmt.Fprintf(&b, "hardened completes %.1f%% sooner than the poisoned naive replan, %.1f%% over the clean run\n",
		r.HardenedVsNaivePct, r.HardenedVsCleanPct)
	return b.String()
}

// Degrade runs the three variants of one TeraSort, each with spark
// recovery on, and reports the JCT spread.
func Degrade(p Params) (*DegradeResult, error) {
	p = p.withDefaults()
	res := &DegradeResult{
		Scenario: "netsim 8-DC testbed",
		Fault: fmt.Sprintf("dc1-3 partitioned t=[%.1f, %.1f]s across the t=745 re-gauge window, dc%d->dc%d reset at t=%.1fs",
			degradeBlackoutStart, degradeBlackoutEnd, degradeResetSrc, degradeResetDst, degradeResetAt),
	}
	job := workloads.TeraSort(workloads.UniformInput(len(geo.Testbed()), 100e9))
	for _, variant := range []string{"clean", "naive", "hardened"} {
		t := wanifyTrial(p, func(seed uint64) (substrate.Cluster, error) {
			sim := netsimTestbed(seed)
			if variant != "clean" {
				degradeSchedule().Apply(sim)
			}
			return sim, nil
		}, 0)
		t.runtime, t.recover = degradeRuntime(variant == "hardened"), true
		run, ctl, err := t.run(job)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", variant, err)
		}
		g := ctl.Gauge()
		v := DegradeVariant{
			Variant: variant, JCTSeconds: run.JCTSeconds, WANBytes: run.WANBytes,
			Replans: ctl.Replans(), Rejected: g.RejectedSnapshots, Retries: g.Retries,
			Unmeasurable: g.UnmeasurablePairs, Fused: g.FusedPairs,
		}
		for _, ev := range ctl.Events() {
			v.Events = append(v.Events, ev.String())
		}
		for _, in := range ctl.Incidents() {
			v.Incidents = append(v.Incidents, in.String())
		}
		res.Rows = append(res.Rows, v)
	}
	res.HardenedVsNaivePct = pct(res.Rows[1].JCTSeconds, res.Rows[2].JCTSeconds)
	res.HardenedVsCleanPct = -pct(res.Rows[0].JCTSeconds, res.Rows[2].JCTSeconds)
	return res, nil
}
