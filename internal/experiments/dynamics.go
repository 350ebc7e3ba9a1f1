package experiments

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/stats"
	"github.com/wanify/wanify/internal/workloads"
)

// --- Fig. 9: handling dynamics (AIMD tracking) ---

// Fig9Epoch is one local-optimizer epoch of the US East agent.
type Fig9Epoch struct {
	Now         float64
	TargetSD    float64 // SD of target BWs across destinations
	ActualSD    float64 // SD of ifTop-monitored BWs across destinations
	ErrTargetSD float64 // SD with 20% random error injected
	SigDelta    bool    // |err target − actual| > 100 Mbps on some link
}

// Fig9Result holds the epoch series and the significant-delta count of
// the 20%-error variant.
type Fig9Result struct {
	Epochs           []Fig9Epoch
	SigDeltasWithErr int
	MeanAbsSDGap     float64 // |targetSD − actualSD| averaged over epochs
}

// Fig9 runs WANify-enabled Tetrium on query 78 and tracks, per 5-second
// AIMD epoch, the standard deviation of the US East agent's target BWs
// versus the SD of the actual monitored rates, plus a 20%-error variant
// (Fig. 9(b)).
func Fig9(p Params) (*Fig9Result, error) {
	p = p.withDefaults()
	job, err := workloads.TPCDS(78, workloads.UniformInput(8, 100e9))
	if err != nil {
		return nil, err
	}
	tr, err := wanifyTrial(p, nil, 0).setup(trialJob{job: job})
	if err != nil {
		return nil, err
	}
	defer tr.stop()
	var east *agent.Agent
	for _, a := range tr.fw.Agents() {
		if a.DC() == 0 {
			east = a
			break
		}
	}
	if east == nil {
		return nil, fmt.Errorf("fig9: no US East agent")
	}
	sim := tr.sim

	// ifTop-equivalent monitor on US East (DC 0), sampled every second
	// over 5-second windows to match the agent epochs.
	mon := measure.NewMonitor(sim, 0, 1.0, 5)
	defer mon.Close()

	// Sample the US East agent on its own cadence. Both timers fire
	// every 5 s from the same instant and the agent's was armed first,
	// so at every shared instant its epoch has just run: each sample is
	// that epoch's targets and monitored rates, beside the monitor's.
	rng := simrand.Derive(p.Seed, "fig9-20pct")
	res := &Fig9Result{}
	cancel := sim.Every(5.0, func(now float64) {
		var actual []float64
		for d, r := range mon.Rates() {
			if d != 0 {
				actual = append(actual, r)
			}
		}
		monitored := east.MonitoredMbps()
		var targets, errTargets []float64
		sig := false
		for d, t := range east.TargetBW() {
			if d == 0 {
				continue
			}
			targets = append(targets, t)
			et := t * rng.Uniform(0.8, 1.2) // 20% random error
			errTargets = append(errTargets, et)
			if monitored[d] > 0 {
				if diff := et - monitored[d]; diff > 100 || diff < -100 {
					sig = true
				}
			}
		}
		ep := Fig9Epoch{
			Now:         now,
			TargetSD:    stats.StdDev(targets),
			ActualSD:    stats.StdDev(actual),
			ErrTargetSD: stats.StdDev(errTargets),
			SigDelta:    sig,
		}
		res.Epochs = append(res.Epochs, ep)
		if sig {
			res.SigDeltasWithErr++
		}
		res.MeanAbsSDGap += abs(ep.TargetSD - ep.ActualSD)
	})
	defer cancel()

	if _, _, err := tr.run(); err != nil {
		return nil, err
	}
	if len(res.Epochs) > 0 {
		res.MeanAbsSDGap /= float64(len(res.Epochs))
	}
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// String renders the epoch series.
func (r *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 9: SD of local-optimizer target BWs vs monitored BWs (US East), 5s epochs\n")
	fmt.Fprintf(&b, "%-8s%14s%14s%16s%6s\n", "epoch", "targetSD", "actualSD", "20%-err SD", "sig")
	for i, ep := range r.Epochs {
		mark := ""
		if ep.SigDelta {
			mark = "|"
		}
		fmt.Fprintf(&b, "%-8d%14.1f%14.1f%16.1f%6s\n", i, ep.TargetSD, ep.ActualSD, ep.ErrTargetSD, mark)
	}
	fmt.Fprintf(&b, "epochs=%d, significant (>100 Mbps) deltas with 20%% error: %d %s\n",
		len(r.Epochs), r.SigDeltasWithErr, paperText("fig9", "significant deltas"))
	fmt.Fprintf(&b, "mean |targetSD - actualSD| = %.1f Mbps (close tracking = accurate modelling)\n", r.MeanAbsSDGap)
	return b.String()
}
