package experiments

import (
	"cmp"
	"fmt"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// --- the trial: one evaluation variant ---
//
// The §5 comparisons differ on two axes only: where the scheduler's
// bandwidth belief comes from, and how the jobs' transfers pick their
// connections. A trial is one point of that grid on a fresh cluster
// launched at a common start instant, so every compared variant of a
// figure sees the same network weather from the start onward (link
// draws depend only on elapsed time). It runs one job, or several as
// one spark.JobSet (multijob's shared deployments, fleet's regional
// jobs), with recovery when the driver injects faults (failover,
// degrade, chaos). Only the serving plane, which admits jobs while the
// clock runs, and the measurement-only figures stay outside it.

// queryStart is the default start instant (seconds). Static-independent
// measurement happens early (and is stale by then); simultaneous
// measurement and snapshots happen just before.
const queryStart = 700.0

// beliefKind selects how a trial's bandwidth matrix is obtained. Kinds
// from beliefPredicted on need the prediction model.
type beliefKind int

const (
	beliefNone               beliefKind = iota // none: the cluster runs to the start
	beliefOracle                               // netsim's true caps, read (and the jobs launched) at start − 1
	beliefStaticIndependent                    // one pair at a time, early: stale by the start
	beliefStaticSimultaneous                   // all pairs at once for 20 s before the start
	beliefPredicted                            // a 1 s snapshot through the model
	beliefPredictedByVM                        // per VM pair, associated per DC (§3.3.3)
	beliefWANify                               // the framework's own DetermineRuntimeBW
)

func (k beliefKind) String() string {
	return [...]string{"none", "oracle", "static-independent", "static-simultaneous",
		"predicted", "predicted-by-vm", "wanify"}[k]
}

// connKind selects how a trial's transfers pick their connections.
// Kinds from connLocalOnly on deploy the framework's agents.
type connKind int

const (
	connSingle     connKind = iota // one connection (vanilla Spark)
	connUniform                    // a uniform 8 (WANify-P, §5.3)
	connGlobalOnly                 // the global plan's max window, fixed (§5.5)
	connLocalOnly                  // agents in a static 1–8 window, unthrottled (§5.5)
	connDynamic                    // agents in the global plan's window (WANify-Dynamic)
	connTC                         // connDynamic plus §3.2.2 throttling (WANify-TC)
)

// trial is one variant. The zero value of every field but p and
// system is the default: p's 8-DC testbed seeded with seed, launched at
// queryStart with no belief over single connections.
type trial struct {
	p Params
	// cluster builds the trial's cluster from seed (nil: p's 8-DC
	// testbed).
	cluster func(seed uint64) (substrate.Cluster, error)
	seed    uint64
	start   float64 // launch instant (0: queryStart)
	belief  beliefKind
	// rng labels the predicted beliefs' snapshot noise, derived from
	// beliefSeed (0: p.Seed).
	rng        string
	beliefSeed uint64
	// perturb, when set, rewrites the belief before anything uses it;
	// the belief then deploys without a re-gauging controller.
	perturb func(bwmatrix.Matrix) bwmatrix.Matrix
	conns   connKind
	k       int // connUniform's connections per pair (0: 8)
	opts    wanify.OptimizeOptions
	// share splits a job set's windows across its jobs; whole hands
	// every job the whole window instead (JobSetOptions.Oversubscribe).
	share   optimize.ShareMode
	whole   bool
	runtime rgauge.Config // the re-gauging controller (off when zero)
	recover bool          // spark fault recovery
	// system is a gda.ParseScheduler spec; label names a tetrium or
	// kimchi variant in reports.
	system, label string
}

// trialJob is one job of a trial's set.
type trialJob struct {
	job      spark.Job
	delayS   float64 // start delay after the set enters
	priority float64 // SharePriority weight
	allowed  []bool  // the DCs it may place work on (nil: all)
}

// trialRun is a trial set up to its start instant.
type trialRun struct {
	t        trial
	jobs     []trialJob
	sim      substrate.Cluster
	belief   bwmatrix.Matrix
	policy   spark.ConnPolicy
	policies []spark.ConnPolicy // per job, when a job set's slots hold them
	fw       *wanify.Framework  // nil unless the belief or the connections need it
	set      *spark.JobSet      // the running set, for ShareRemaining
}

// run sets the trial up and runs job on it alone.
func (t trial) run(job spark.Job) (spark.RunResult, *rgauge.Controller, error) {
	set, ctl, err := t.runSet(trialJob{job: job})
	if err != nil {
		return spark.RunResult{}, ctl, err
	}
	return set.Results[0], ctl, nil
}

// runSet sets the trial up and runs jobs on it as one set.
func (t trial) runSet(jobs ...trialJob) (spark.JobSetResult, *rgauge.Controller, error) {
	r, err := t.setup(jobs...)
	if err != nil {
		return spark.JobSetResult{}, nil, err
	}
	return r.run()
}

// enables reports whether the trial opens its deployment with the
// framework's own one call, Enable or EnableJobSet: an unperturbed
// WANify belief, deployed to agents in the global plan's window.
func (t trial) enables() bool {
	return t.belief == beliefWANify && t.conns >= connDynamic && t.perturb == nil
}

// setup builds the cluster, runs it to the start instant while
// obtaining the belief, and deploys the connection strategy for jobs:
// one slot each through EnableJobSet when the trial enables, one slot
// shared by all of them otherwise (none: for a driver that runs its
// own workload).
func (t trial) setup(jobs ...trialJob) (*trialRun, error) {
	var model *predict.Model
	if t.belief >= beliefPredicted || t.conns >= connLocalOnly {
		var err error
		if model, err = sharedModel(t.p); err != nil {
			return nil, err
		}
	}
	mk := t.cluster
	if mk == nil {
		mk = func(seed uint64) (substrate.Cluster, error) { return testbedCluster(t.p, 8, seed) }
	}
	sim, err := mk(t.seed)
	if err != nil {
		return nil, err
	}
	r := &trialRun{t: t, jobs: jobs, sim: sim, policy: spark.SingleConn{}}
	if t.belief == beliefWANify || t.conns >= connLocalOnly {
		r.fw, err = wanify.New(wanify.Config{
			Cluster: sim, Rates: rates, Seed: t.p.Seed,
			Agent:   agent.Config{Throttle: t.conns == connTC},
			Runtime: t.runtime,
		}, model)
		if err != nil {
			return nil, err
		}
	}
	if r.belief, err = t.gauge(sim, r.fw, model); err != nil {
		return nil, err
	}
	if t.perturb != nil {
		r.belief = t.perturb(r.belief)
	}
	switch {
	case t.conns == connUniform:
		r.policy = spark.UniformConn{K: cmp.Or(t.k, 8)}
	case t.conns == connGlobalOnly:
		plan := optimize.GlobalOptimize(r.belief, optimize.Options{})
		r.policy = spark.FixedConn{Cluster: sim, Matrix: plan.MaxConns}
	case t.conns == connLocalOnly:
		r.fw.DeployAgents(r.belief, localOnlyPlan(r.belief))
		r.policy = r.fw.ConnPolicy()
	case t.enables() && len(jobs) > 1:
		r.belief, r.policies, _, err = r.fw.EnableJobSet(r.jobSetOptions())
	case t.enables():
		r.belief, r.policy, _ = r.fw.Enable(t.opts)
	case t.conns >= connDynamic:
		r.fw.DeployAgents(r.belief, r.fw.Optimize(r.belief, t.opts))
		r.policy = r.fw.ConnPolicy()
	}
	return r, err
}

// jobSetOptions is the trial's EnableJobSet deployment: one slot per
// job at its priority, the Remaining hook polling the trial's own set.
func (r *trialRun) jobSetOptions() wanify.JobSetOptions {
	o := wanify.JobSetOptions{Jobs: len(r.jobs), Share: r.t.share, Oversubscribe: r.t.whole, Optimize: r.t.opts}
	for _, j := range r.jobs {
		o.Priorities = append(o.Priorities, j.priority)
	}
	o.Remaining = func() []float64 {
		if r.set == nil {
			// Deploy-time seed, before the set exists: everything is
			// still remaining, so weigh by total input bytes.
			out := make([]float64, len(r.jobs))
			for i, j := range r.jobs {
				out[i] = j.job.TotalInputBytes()
			}
			return out
		}
		return r.set.RemainingBytes()
	}
	return o
}

// gauge runs sim to the start instant, obtaining the belief on the way.
func (t trial) gauge(sim substrate.Cluster, fw *wanify.Framework, model *predict.Model) (bwmatrix.Matrix, error) {
	start := t.start
	if start == 0 {
		start = queryStart
	}
	switch t.belief {
	case beliefNone:
		sim.RunUntil(start)
		return nil, nil
	case beliefStaticIndependent:
		m, _ := measure.StaticIndependent(sim, measure.Options{DurationS: 8})
		if sim.Now() > start {
			return nil, fmt.Errorf("experiments: static measurement overran query start (%.0fs)", sim.Now())
		}
		sim.RunUntil(start)
		return m, nil
	case beliefStaticSimultaneous:
		sim.RunUntil(start - 20)
		m, _ := measure.StaticSimultaneous(sim, measure.StableOptions())
		return m, nil
	}
	if t.belief == beliefOracle {
		ns, ok := sim.(*netsim.Sim)
		if !ok {
			return nil, fmt.Errorf("experiments: oracle beliefs need the netsim backend, not %s", t.p.Backend)
		}
		sim.RunUntil(start - 1)
		return ns.PerConnCapMatrix(), nil
	}
	sim.RunUntil(start - 1)
	seed := t.beliefSeed
	if seed == 0 {
		seed = t.p.Seed
	}
	switch t.belief {
	case beliefPredicted:
		feats, _ := dataset.SnapshotFeatures(sim, simrand.Derive(seed, t.rng))
		return model.PredictMatrix(feats), nil
	case beliefPredictedByVM:
		feats, _ := dataset.SnapshotFeaturesByVM(sim, simrand.Derive(seed, t.rng))
		return model.PredictDCMatrixByVM(feats, dcOfVMs(sim), sim.NumDCs()), nil
	}
	if t.enables() {
		return nil, nil // Enable gauges as it deploys
	}
	pred, _ := fw.DetermineRuntimeBW()
	return pred, nil
}

// localOnlyPlan is §5.5's local-only window: 1–8 connections on every
// pair and targets from the prediction up to 8× it, with no closeness
// inference. Chunked over 1-VM DCs it is every agent's row verbatim.
func localOnlyPlan(pred bwmatrix.Matrix) optimize.Plan {
	n := len(pred)
	return optimize.Plan{
		MinConns: bwmatrix.NewConnFilled(n, 1), MaxConns: bwmatrix.NewConnFilled(n, 8),
		MinBW: pred.Clone(), MaxBW: pred.Scale(8),
	}
}

// dcOfVMs maps every VM of sim to its DC.
func dcOfVMs(sim substrate.Cluster) []int {
	dcOf := make([]int, sim.NumVMs())
	for v := range dcOf {
		dcOf[v] = sim.DCOf(substrate.VMID(v))
	}
	return dcOf
}

// run executes the jobs as one set under the trial's scheduler and
// stops the deployment. The controller it returns (nil without
// t.runtime) is stopped with its history intact.
func (r *trialRun) run() (spark.JobSetResult, *rgauge.Controller, error) {
	defer r.stop()
	eng := spark.NewEngine(r.sim, rates)
	if r.t.recover {
		eng.Recovery = spark.RecoveryConfig{Enabled: true}
	}
	sched, err := r.t.scheduler(r.belief, gda.NewClusterInfo(r.sim, rates))
	if err != nil {
		return spark.JobSetResult{}, nil, err
	}
	runs := make([]spark.JobRun, len(r.jobs))
	for i, j := range r.jobs {
		runs[i] = spark.JobRun{Job: j.job, Sched: sched, Policy: r.policy, StartDelayS: j.delayS}
		if j.allowed != nil {
			runs[i].Sched = gda.Masked{Inner: sched, Allowed: j.allowed}
		}
		if r.policies != nil {
			runs[i].Policy = r.policies[i]
		}
	}
	var res spark.JobSetResult
	if r.set, err = spark.NewJobSet(eng, runs); err == nil {
		res, err = r.set.Run()
	}
	var ctl *rgauge.Controller
	if r.fw != nil {
		ctl = r.fw.Controller()
	}
	return res, ctl, err
}

// stop tears the deployment down (a no-op without one).
func (r *trialRun) stop() {
	if r.fw != nil {
		r.fw.StopAgents()
	}
}

// scheduler places by the belief: a labelled Tetrium or Kimchi, or any
// other gda.ParseScheduler spec.
func (t trial) scheduler(believed bwmatrix.Matrix, info gda.ClusterInfo) (spark.Scheduler, error) {
	switch t.system {
	case "tetrium":
		return gda.Tetrium{Label: t.label, Believed: believed, Info: info}, nil
	case "kimchi":
		return gda.Kimchi{Label: t.label, Believed: believed, Info: info}, nil
	}
	return gda.ParseScheduler(t.system, believed, info)
}

// wanifyTrial is WANify-enabled Tetrium — the framework's own predicted
// belief, WANify-TC connections — on cluster (nil: p's testbed) seeded
// with p.Seed, launched at start (0: queryStart).
func wanifyTrial(p Params, cluster func(seed uint64) (substrate.Cluster, error), start float64) trial {
	return trial{p: p, cluster: cluster, seed: p.Seed, start: start, belief: beliefWANify, conns: connTC,
		system: "tetrium", label: "tetrium(wanify)"}
}

// netsimTestbed is the 8-DC netsim testbed whatever the backend: the
// drivers that cut its links or script its faults need the simulator.
func netsimTestbed(seed uint64) *netsim.Sim {
	return netsim.NewSim(netsim.UniformCluster(geo.Testbed(), substrate.T2Medium, seed))
}
