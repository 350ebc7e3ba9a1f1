package experiments

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/workloads"
)

// --- fleet: staggered multi-job shuffle at fleet scale ---
//
// Every paper-scale driver runs ≤8 DCs; this one runs the synthetic
// 100-DC fleet (geo.Fleet via netsim.FleetCluster) to exercise the
// machinery the scale tier introduces end to end: regional jobs whose
// disjoint footprints decompose the live flow set into many
// independent bottleneck groups (sharded water-filling), sparse
// layouts over a 100-wide cluster (gda's nzRows fast paths), and
// staggered starts so the group population churns as jobs enter and
// drain. The driver is model-free — schedulers plan from the oracle
// belief, like chaos — so a run costs no training at any cluster size.

func init() {
	Registry["fleet"] = func(p Params) (Result, error) { return Fleet(p) }
}

// Fleet cluster and workload shape. Jobs are regional: each TeraSort's
// input lives on fleetJobDCs consecutive DCs (consecutive fleet ids
// share a metro/continent), with footprints spread across the fleet
// and starts staggered so early jobs are mid-shuffle when later ones
// arrive. Each job places work only inside its footprint (gda.Masked,
// the per-job quota a shared fleet enforces): unconfined, a
// compute-heavy stage spreads over all 100 DCs and every shuffle
// becomes a fleet-wide all-to-all of ~40k flows in one bottleneck
// group.
const (
	fleetDCs      = 100
	fleetVMsPerDC = 4
	fleetJobs     = 6
	fleetJobDCs   = 6
	fleetStaggerS = 6.0
	fleetStart    = 30.0
	fleetJobGB    = 15.0 // per-job input
)

// FleetJobRow is one regional job's outcome.
type FleetJobRow struct {
	Name       string
	FirstDC    int // start of the job's input footprint
	StartS     float64
	JCTSeconds float64
	WANBytes   float64
	OutputB    float64
}

// FleetResult is the fleet driver's rendered outcome: per-job rows
// plus the allocator-shape telemetry the scale tier is about.
type FleetResult struct {
	Scenario   string
	Rows       []FleetJobRow
	MakespanS  float64
	PeakGroups int // most bottleneck groups one allocation decomposed into
	PeakFlows  int // most concurrent flows observed
}

// String renders the job table and allocator shape.
func (r *FleetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet-scale multi-job shuffle on %s\n", r.Scenario)
	fmt.Fprintf(&b, "%-10s%8s%10s%10s%10s%12s\n", "job", "DCs", "start(s)", "JCT(s)", "WAN(GB)", "output(GB)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s%3d-%-4d%10.0f%10.1f%10.2f%12.2f\n",
			row.Name, row.FirstDC, row.FirstDC+fleetJobDCs-1, row.StartS,
			row.JCTSeconds, row.WANBytes/1e9, row.OutputB/1e9)
	}
	fmt.Fprintf(&b, "makespan %.1fs; allocator peak: %d bottleneck groups, %d concurrent flows\n",
		r.MakespanS, r.PeakGroups, r.PeakFlows)
	return b.String()
}

// Fleet runs the staggered regional TeraSorts concurrently over one
// 100-DC fleet cluster and reports per-job outcomes plus the peak
// allocator decomposition. Deterministic in the seed.
func Fleet(p Params) (*FleetResult, error) {
	p = p.withDefaults()
	var jobs []trialJob
	stride := fleetDCs / fleetJobs
	for j := 0; j < fleetJobs; j++ {
		first := j * stride
		hot := make([]int, fleetJobDCs)
		allowed := make([]bool, fleetDCs)
		for k := range hot {
			hot[k] = first + k
			allowed[first+k] = true
		}
		job := workloads.TeraSort(workloads.SkewedInput(fleetDCs, fleetJobGB*1e9, hot, 1.0))
		job.Name = fmt.Sprintf("sort-%d", j)
		jobs = append(jobs, trialJob{job: job, delayS: float64(j) * fleetStaggerS, allowed: allowed})
	}
	// The oracle belief is read, and the set launched, at fleetStart.
	tr, err := trial{p: p, seed: p.Seed, start: fleetStart + 1, belief: beliefOracle, conns: connUniform, k: 4,
		system: "tetrium", label: "tetrium(oracle)@region",
		cluster: func(seed uint64) (substrate.Cluster, error) {
			return netsim.NewSim(netsim.FleetCluster(fleetDCs, fleetVMsPerDC, substrate.T2Medium, seed)), nil
		}}.setup(jobs...)
	if err != nil {
		return nil, err
	}
	sim := tr.sim.(*netsim.Sim)

	// Sample the allocator shape while the set runs: the probe
	// reschedules itself on the substrate clock every simulated
	// second, fine enough to catch the staggered transfer phases
	// while they overlap.
	res := &FleetResult{
		Scenario: fmt.Sprintf("netsim %d-DC fleet, %d VMs/DC, %d staggered regional terasorts",
			fleetDCs, fleetVMsPerDC, fleetJobs),
	}
	var probe func(now float64)
	probe = func(now float64) {
		if g, _ := sim.AllocGroups(); g > res.PeakGroups {
			res.PeakGroups = g
		}
		if f := sim.ActiveFlows(); f > res.PeakFlows {
			res.PeakFlows = f
		}
		sim.After(1, probe)
	}
	sim.After(1, probe)

	set, _, err := tr.run()
	if err != nil {
		return nil, err
	}
	res.MakespanS = set.MakespanS
	for j, rr := range set.Results {
		res.Rows = append(res.Rows, FleetJobRow{
			Name:       rr.Job,
			FirstDC:    j * stride,
			StartS:     jobs[j].delayS,
			JCTSeconds: rr.JCTSeconds,
			WANBytes:   rr.WANBytes,
			OutputB:    rr.OutputBytes,
		})
	}
	return res, nil
}
