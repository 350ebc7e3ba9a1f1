package spark

import (
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/substrate"
)

// Scheduler decides stage placement. Implementations (internal/gda)
// hold whatever bandwidth matrix they believe — statically measured,
// simultaneous, or WANify-predicted — which is the independent variable
// of Tables 1/4 and Figs. 7/8/10/11.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Place returns the task-fraction placement for a stage, given the
	// stage description and the current data layout (bytes per DC).
	Place(stageIdx int, stage Stage, layout []float64) Placement
}

// StageReport describes one executed stage.
type StageReport struct {
	Name      string
	Kind      StageKind
	Placement Placement
	TransferS float64 // WAN transfer (migration or shuffle) duration
	ComputeS  float64 // compute phase duration
	WANBytes  float64 // bytes launched across DCs (including recovery waves)
	// Pairs holds one entry per non-zero off-diagonal entry of the
	// planned transfer, i-major; recovery waves add none.
	Pairs []PairStat

	// Fault-recovery accounting (all zero on fault-free runs).
	DeliveredBytes float64 // bytes physically delivered by the stage's flows
	LostBytes      float64 // bytes voided by faults (undelivered or landed on a dead DC)
	RecoveredBytes float64 // bytes re-routed by recovery waves and layout repair
	RecomputeS     float64 // extra compute charged for re-executed partitions
	Recoveries     int     // recovery waves this stage ran
}

// PairStat is one DC pair's planned transfer within a stage.
type PairStat struct {
	I, J  int32   // source and destination DC
	Bytes float64 // planned bytes, sub-byte entries (never launched) included
	Mbps  float64 // average achieved rate from the stage start; 0 if never timed
}

// RunResult is the outcome of one job execution.
type RunResult struct {
	Job        string
	Scheduler  string
	JCTSeconds float64
	Stages     []StageReport
	WANBytes   float64
	// MinShuffleMbps is the paper's "minimum BW of the cluster": the
	// lowest per-pair average rate observed across all meaningful
	// (≥1 MiB) planned WAN transfers of the job.
	MinShuffleMbps float64
	Cost           cost.Breakdown
	// Energy is the job's energy/carbon account, itemized like Cost:
	// compute kWh for every VM held over the JCT, network kWh for the
	// WAN bytes moved, each converted to kgCO₂-eq through the grid
	// intensity of the region where the energy was drawn.
	Energy cost.EnergyBreakdown

	// Fault-recovery totals over all stages (zero on fault-free runs).
	LostBytes      float64
	RecoveredBytes float64
	RecomputeS     float64
	Recoveries     int
	// OutputBytes is the job's final resident data volume — input times
	// the product of stage selectivities, conserved through recovery.
	OutputBytes float64
}

// Engine executes jobs on a simulated geo-distributed cluster.
type Engine struct {
	sim   substrate.Cluster
	rates cost.Rates
	loads *loadLedger

	// MaxStageTransferS bounds a single transfer phase in simulated
	// seconds before the engine reports an error (default 6 hours).
	MaxStageTransferS float64
	// OverlapFetchCompute pipelines each stage's computation with its
	// data transfer (SDTP-style [13], "simultaneous data transfer and
	// processing"): the stage ends after max(transfer, compute) instead
	// of their sum, at the price of full CPU load during the transfer
	// (which slows sending, the coupling SDTP has to manage). Default
	// off — plain Spark semantics.
	OverlapFetchCompute bool
	// Recovery controls reaction to substrate faults (see
	// RecoveryConfig). Zero value: disabled, faults fail the run.
	Recovery RecoveryConfig

	// energyRates parameterizes the energy/carbon account (NewEngine
	// fills the defaults; zero-value Engines report zero energy).
	energyRates cost.EnergyRates
}

// NewEngine builds an engine over a simulator with the given pricing.
func NewEngine(sim substrate.Cluster, rates cost.Rates) *Engine {
	return &Engine{
		sim:               sim,
		rates:             rates,
		MaxStageTransferS: 6 * 3600,
		energyRates:       cost.DefaultEnergyRates(),
	}
}

// Cluster exposes the underlying WAN substrate.
func (e *Engine) Cluster() substrate.Cluster { return e.sim }

// ledger returns the engine's CPU-load ledger, building it on first
// use so zero-value Engines (tests) keep working.
func (e *Engine) ledger() *loadLedger {
	if e.loads == nil {
		e.loads = newLoadLedger(e.sim)
	}
	return e.loads
}

// ComputeRates returns the aggregate compute rate per DC.
func (e *Engine) ComputeRates() []float64 {
	out := make([]float64, e.sim.NumDCs())
	for dc := range out {
		for _, vm := range e.sim.VMsOfDC(dc) {
			out[dc] += e.sim.Spec(vm).ComputeRate
		}
	}
	return out
}

// RunJob executes the job under the given scheduler and connection
// policy, returning timing, bandwidth and cost observations: a JobSet
// of one, run to completion.
func (e *Engine) RunJob(job Job, sched Scheduler, policy ConnPolicy) (RunResult, error) {
	out, err := e.RunJobSet([]JobRun{{Job: job, Sched: sched, Policy: policy}})
	if err != nil {
		return RunResult{}, err
	}
	return out.Results[0], nil
}

// pendingPair tracks one DC pair's transfer within a stage.
type pendingPair struct {
	i, j  int
	idx   int // the pair's entry in the stage's planned list; -1 for a recovery wave
	bytes float64
	done  float64 // completion time of the pair's last flow
	left  int

	// Fault accounting (recovery machinery; zero when no fault hits).
	delivered         float64 // bytes physically delivered (complete + partial)
	failedTransferred float64 // the part of delivered carried by failed flows
	reclaimed         bool    // dead-destination wastage already re-routed
}

// launchTransfers starts one flow per (source VM, destination DC) pair
// share and appends the pairs, the flows and the flows' records to the
// job's lists, taking pairs and records off the set's free lists; it
// returns the bytes launched. Pairs of the stage's planned list keep
// their index into it; a recovery wave's (planned false) have none.
// Each flow completes through its record's done callback, which counts
// the stage's outstanding flows; flows are spread over living VMs only
// (identical to the full set when no fault has fired).
func (s *JobSet) launchTransfers(js *jobState, transfer []PairStat, planned bool) (wanBytes float64) {
	sim, policy := s.eng.sim, js.run.Policy
	for idx, ps := range transfer {
		b := ps.Bytes
		if b < 1 {
			continue
		}
		wanBytes += b
		pp := s.takePair()
		*pp = pendingPair{i: int(ps.I), j: int(ps.J), idx: -1, bytes: b}
		if planned {
			pp.idx = idx
		}
		js.pairs = append(js.pairs, pp)
		srcVMs := aliveVMs(sim, pp.i)
		dstVMs := aliveVMs(sim, pp.j)
		// Spread the pair's bytes across source VMs; each source VM
		// sends to one destination VM (round-robin).
		share := b / float64(len(srcVMs))
		for k, src := range srcVMs {
			dst := dstVMs[k%len(dstVMs)]
			conns := policy.Conns(src, pp.j)
			pp.left++
			rec := s.takeRec()
			rec.js, rec.stage, rec.pp, rec.bytes = js, js.stage, pp, share
			rec.f = sim.StartFlow(src, dst, conns, share, rec.done)
			policy.Register(rec.f)
			js.flows = append(js.flows, rec.f)
			js.recs = append(js.recs, rec)
		}
	}
	return wanBytes
}

// pairRates writes each planned pair's average achieved Mbps, for a
// transfer phase that began at start, into its entry of stats. A
// recovery wave's pair carries only re-routed bytes, so it has no rate.
func pairRates(stats []PairStat, pairs []*pendingPair, start float64) {
	for _, pp := range pairs {
		if d := pp.done - start; pp.idx >= 0 && d > 0 {
			stats[pp.idx].Mbps = pp.bytes * 8 / 1e6 / d
		}
	}
}

// computeSeconds is the stage-compute model: the stage finishes when
// its slowest DC does.
func computeSeconds(stage Stage, layout, computeRates []float64) float64 {
	computeS := 0.0
	for j := range layout {
		if layout[j] <= 0 {
			continue
		}
		t := layout[j] / 1e9 * stage.SecPerGB / computeRates[j]
		if t > computeS {
			computeS = t
		}
	}
	return computeS
}

// computeLoadDeltas fills a per-VM load-delta vector for a compute
// phase: 0.9 on every VM of a DC with work, 0 elsewhere.
func (e *Engine) computeLoadDeltas(dst []float64, layout []float64) []float64 {
	if len(dst) != e.sim.NumVMs() {
		dst = make([]float64, e.sim.NumVMs())
	}
	for v := range dst {
		dst[v] = 0
	}
	for j := range layout {
		if layout[j] > 0 {
			for _, vm := range e.sim.VMsOfDC(j) {
				dst[vm] = 0.9
			}
		}
	}
	return dst
}

// transferLoad is the per-VM CPU load applied while a transfer phase
// runs: workers burn some CPU feeding the network — all of it when the
// engine pipelines compute into the transfer window.
func (e *Engine) transferLoad() float64 {
	if e.OverlapFetchCompute {
		return 0.9
	}
	return transferCPULoad
}

// transferCPULoad is the CPU load set on worker VMs while shuffles run
// (serialization/IO work) without OverlapFetchCompute.
const transferCPULoad = 0.3

// price itemizes the job cost: every cluster VM is held for the full
// JCT (compute), cross-DC bytes pay their source region's egress rate
// (network), and the input is stored for the job duration (storage).
func (e *Engine) price(job Job, res RunResult) cost.Breakdown {
	var b cost.Breakdown
	for v := 0; v < e.sim.NumVMs(); v++ {
		b.ComputeUSD += e.rates.ComputeUSD(e.sim.Spec(substrate.VMID(v)), res.JCTSeconds)
	}
	// A region's rate is a longest-prefix lookup over a map; resolve it
	// once per DC, not once per matrix entry. The per-entry expression
	// is Rates.EgressUSD's.
	regions := e.sim.Regions()
	perGB := make([]float64, len(regions))
	for i, r := range regions {
		perGB[i] = e.rates.EgressPerGBFor(r)
	}
	for _, st := range res.Stages {
		for _, ps := range st.Pairs {
			b.NetworkUSD += ps.Bytes / 1e9 * perGB[ps.I]
		}
	}
	b.StorageUSD = e.rates.StorageUSD(job.TotalInputBytes()/1e9, res.JCTSeconds)
	return b
}

// energy itemizes the job's energy/carbon account the way price
// itemizes dollars: every cluster VM draws its attributable watts for
// the full JCT (converted through its own region's grid intensity),
// and cross-DC bytes pay the WAN transport energy at the sender's
// grid — the accounting the carbon-aware placement scorer plans
// against.
func (e *Engine) energy(res RunResult) cost.EnergyBreakdown {
	var b cost.EnergyBreakdown
	// Grid intensity per DC, resolved once like price's egress rates.
	regions := e.sim.Regions()
	gPerKWh := make([]float64, len(regions))
	for i, r := range regions {
		gPerKWh[i] = e.energyRates.IntensityFor(r)
	}
	for v := 0; v < e.sim.NumVMs(); v++ {
		id := substrate.VMID(v)
		kwh := e.energyRates.ComputeKWh(e.sim.Spec(id), res.JCTSeconds)
		b.ComputeKWh += kwh
		b.ComputeKgCO2 += kwh * gPerKWh[e.sim.DCOf(id)] / 1000
	}
	for _, st := range res.Stages {
		for _, ps := range st.Pairs {
			kwh := e.energyRates.NetworkKWh(ps.Bytes)
			b.NetworkKWh += kwh
			b.NetworkKgCO2 += kwh * gPerKWh[ps.I] / 1000
		}
	}
	return b
}
