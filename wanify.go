// Package wanify is a from-scratch reproduction of WANify (Mohapatra &
// Oh, IISWC 2025): a framework that gauges achievable *runtime* WAN
// bandwidth for geo-distributed data analytics via a Random-Forest
// prediction model over cheap 1-second snapshots, and balances WAN
// usage by assigning an optimal *heterogeneous* number of parallel
// connections per DC pair — trading bandwidth on strong links for the
// weak links that gate job completion time.
//
// The package wires together the paper's architecture (Fig. 3):
//
//   - Offline module: the Bandwidth Analyzer collects labeled snapshots
//     (TrainOffline → internal dataset generation) and trains the WAN
//     Prediction Model (Random Forest, 100 trees).
//   - Online module: Runtime Bandwidth Determination predicts the
//     current runtime BW matrix from a snapshot
//     (Framework.DetermineRuntimeBW); the Global Optimizer derives
//     min/max connection windows and achievable-BW targets
//     (Framework.Optimize, Algorithm 1 + Eq. 2–3).
//   - Local Agents: one per VM, AIMD-tuning connection counts within
//     the window, monitoring achieved rates, and throttling BW-rich
//     links (Framework.DeployAgents).
//
// Everything runs against a deterministic WAN simulator standing in for
// the paper's 8-region AWS testbed; see DESIGN.md for the substitution
// argument and EXPERIMENTS.md for paper-vs-measured results.
package wanify

import (
	"fmt"
	"slices"

	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// Config configures a Framework instance for one cluster.
type Config struct {
	// Cluster is the WAN substrate the deployment runs on (a netsim
	// simulation, a tracesim replay, or any future backend).
	Cluster substrate.Cluster
	// Rates prices measurement and query activity.
	Rates cost.Rates
	// Seed drives snapshot noise and any tie-breaking.
	Seed uint64
	// Agent configures the local agents (epoch, thresholds, throttle).
	Agent agent.Config
	// Runtime configures the mid-job re-gauging controller
	// (internal/runtime). Default off: the plan computed at Enable time
	// stays fixed for the whole job, the base §4.1 behaviour.
	Runtime rgauge.Config
}

// Framework is a WANify deployment bound to one cluster.
type Framework struct {
	cfg   Config
	model *predict.Model
	rng   *simrand.Source

	// predicted is the latest prediction (DetermineRuntimeBW or a
	// re-gauge), features the re-gauge's feature buffer; both are
	// rewritten in place, and what escapes is a copy.
	predicted  bwmatrix.Matrix
	features   [][]dataset.PairFeatures
	plan       optimize.Plan
	deployed   bwmatrix.Matrix // the matrix the deployed agents' plan was built from
	controller *rgauge.Controller

	// optScratch backs the optimizer's interior temporaries across
	// replans (the plan itself is freshly allocated per Optimize call,
	// since plans outlive the next replan in agents and the controller).
	optScratch optimize.Scratch

	// The deployment — always the slot model of dynamic.go: slots holds
	// its policy, occupancy and slot-owned agents; groups is the roster,
	// groups[g] slot g's agents while it is occupied and nil while it is
	// free. Both nil when nothing is deployed.
	slots     *slotState
	groups    [][]*agent.Agent
	throttled bool // cluster-level tc limits installed by the deployment

	// Rebalance scratch, kept across admissions, releases and replans
	// (ownership rule in dynamic.go): the share weights, the per-slot
	// partition of the last plan, and the per-VM rows of the last slot
	// chunked. Agents copy their row; nothing else outlives the call.
	weights []float64
	parts   []optimize.Plan
	rows    []agent.PlanRow
}

// New builds a Framework around a trained prediction model.
func New(cfg Config, model *predict.Model) (*Framework, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("wanify: config needs a cluster backend")
	}
	if model == nil {
		return nil, fmt.Errorf("wanify: nil prediction model")
	}
	return &Framework{
		cfg:   cfg,
		model: model,
		rng:   simrand.Derive(cfg.Seed, "wanify"),
	}, nil
}

// Model returns the framework's prediction model.
func (f *Framework) Model() *predict.Model { return f.model }

// DetermineRuntimeBW takes a 1-second snapshot of the cluster and
// predicts the stable runtime bandwidth matrix — the §4.1.2 Runtime
// Bandwidth Determination sub-module. The returned matrix is shaped
// exactly like the static matrices existing GDA systems consume, so it
// can be fed to them unmodified (the Table 4 usage). The measurement
// report prices the snapshot.
func (f *Framework) DetermineRuntimeBW() (bwmatrix.Matrix, measure.Report) {
	features, rep := dataset.SnapshotFeatures(f.cfg.Cluster, f.rng.Derive("snapshot"))
	f.predicted = f.model.PredictMatrixInto(f.predicted, features)
	return f.predicted.Clone(), rep
}

// Predicted returns the most recent runtime-BW prediction (nil before
// DetermineRuntimeBW).
func (f *Framework) Predicted() bwmatrix.Matrix {
	if f.predicted == nil {
		return nil
	}
	return f.predicted.Clone()
}

// OptimizeOptions carries the heterogeneity inputs of §3.3.
type OptimizeOptions struct {
	// SkewWeights is ws: per-DC input-data weights (nil = uniform).
	SkewWeights []float64
	// RVec is the per-pair refactoring matrix for heterogeneous
	// providers (nil = all ones).
	RVec bwmatrix.Matrix
}

// Optimize runs global optimization (Algorithm 1 + Eq. 2–3) on a
// predicted runtime BW matrix, returning the connection/BW windows.
// Algorithm 1 runs at its defaults, M = optimize.DefaultM and
// D = optimize.DefaultD.
func (f *Framework) Optimize(pred bwmatrix.Matrix, opts OptimizeOptions) optimize.Plan {
	var plan optimize.Plan
	optimize.GlobalOptimizeInto(&plan, pred, optimize.Options{
		SkewWeights: opts.SkewWeights,
		RVec:        opts.RVec,
	}, &f.optScratch)
	f.plan = plan
	return f.plan
}

// Plan returns the most recent global-optimization plan.
func (f *Framework) Plan() optimize.Plan { return f.plan }

// DeployAgents starts one local agent per VM, loaded with the plan
// chunked per VM (association, §3.3.3), for a belief the caller
// supplies: Enable's deployment without the gauging, and without a
// re-gauging controller. Its agents throttle locally. Any previously
// deployed agents are stopped first.
func (f *Framework) DeployAgents(pred bwmatrix.Matrix, plan optimize.Plan) []*agent.Agent {
	f.deploy(pred, plan, JobSetOptions{Jobs: 1, Oversubscribe: true}, true)
	return f.groups[0]
}

// Agents returns every deployed agent, slot by slot (nil when none).
func (f *Framework) Agents() []*agent.Agent {
	var all []*agent.Agent
	for _, group := range f.groups {
		all = append(all, group...)
	}
	return all
}

// StopAgents stops the re-gauging controller (when one is running) and
// all deployed agents, clearing their throttles and any cluster-level
// limits the deployment holds.
func (f *Framework) StopAgents() {
	if f.controller != nil {
		f.controller.Stop()
		f.controller = nil
	}
	for _, group := range f.groups {
		for _, a := range group {
			a.Stop()
		}
	}
	if f.throttled {
		sim := f.cfg.Cluster
		for i := 0; i < sim.NumDCs(); i++ {
			for j := 0; j < sim.NumDCs(); j++ {
				if i != j {
					sim.ClearPairLimit(i, j)
				}
			}
		}
		f.throttled = false
	}
	f.groups, f.slots, f.deployed = nil, nil, nil
}

// Controller returns the running re-gauging controller, or nil when
// Config.Runtime is disabled or agents are not deployed.
func (f *Framework) Controller() *rgauge.Controller { return f.controller }

// ConnPolicy returns the connection policy a spark engine should use so
// transfers are sized and managed by the deployed agents.
func (f *Framework) ConnPolicy() spark.ConnPolicy {
	return spark.NewAgentConn(f.Agents())
}

// Enable is the one-call integration path (§4.1, "any GDA system that
// transfers data among DCs can reap WANify's benefits using the WANify
// Interface"): snapshot → predict → optimize → deploy agents — plus,
// when Config.Runtime is enabled, the mid-job re-gauging loop that
// revisits that plan as WAN conditions shift. It is EnableJobSet's
// one-slot configuration, except that its agents throttle locally. Any
// previous deployment is stopped before the snapshot. It returns the
// predicted matrix (for the GDA system's placement decisions) and the
// connection policy (for its shuffle transfers).
func (f *Framework) Enable(opts OptimizeOptions) (bwmatrix.Matrix, spark.ConnPolicy, measure.Report) {
	pred, rep := f.enable(JobSetOptions{Jobs: 1, Oversubscribe: true, Optimize: opts}, true)
	return pred, f.ConnPolicy(), rep
}

// --- multi-job deployments (DESIGN.md §5) ---

// JobSetOptions configures a multi-tenant WANify deployment: N
// concurrent jobs over one cluster, each receiving its share of the
// global plan's connection windows and achievable-BW targets.
type JobSetOptions struct {
	// Jobs is how many concurrent jobs share the cluster: the
	// deployment's slot count.
	Jobs int
	// Dynamic opens the Jobs slots free for AdmitJob and ReleaseJob to
	// fill while everything runs (the serving control plane,
	// internal/serve) instead of occupying them all at once. It
	// supports fair and priority sharing, with priorities given per
	// AdmitJob, so it rejects Priorities, Oversubscribe and
	// ShareRemaining.
	Dynamic bool
	// Share selects the partitioning policy (fair, priority,
	// bytes-remaining).
	Share optimize.ShareMode
	// Priorities are the per-job weights under SharePriority (len
	// Jobs; nil degrades to fair).
	Priorities []float64
	// Remaining yields the live per-job remaining bytes under
	// ShareRemaining — typically spark.JobSet.RemainingBytes. Nil
	// degrades to fair; the hook is re-polled at every controller
	// replan so shares track job progress.
	Remaining func() []float64
	// Oversubscribe hands every job the WHOLE window instead of a
	// partition — the naive multi-tenant baseline (each job plans as
	// if it owned the cluster) the multijob experiment contrasts
	// against. Off by default.
	Oversubscribe bool
	// Optimize carries the §3.3 heterogeneity inputs of the shared
	// global optimization.
	Optimize OptimizeOptions
}

// applyGlobalThrottles installs the §3.2.2 BW-rich-link caps at the
// cluster level: per source DC, links whose achievable bandwidth
// exceeds the mean are limited to it. Job-set deployments throttle
// here — once per cluster from the GLOBAL plan — because per-job
// agents each see only a slice of the achievable bandwidth and would
// fight over the shared tc limits.
func (f *Framework) applyGlobalThrottles(plan optimize.Plan) {
	sim := f.cfg.Cluster
	n := sim.NumDCs()
	thresholds := optimize.ThrottleThresholds(plan.MaxBW)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if plan.MaxBW[i][j] > thresholds[i] {
				sim.SetPairLimit(i, j, thresholds[i])
			} else {
				sim.ClearPairLimit(i, j)
			}
		}
	}
	f.throttled = true
}

// validate checks the roster shape of a job-set deployment.
func (o JobSetOptions) validate() error {
	if o.Jobs < 1 {
		return fmt.Errorf("wanify: job set needs at least one job, got %d", o.Jobs)
	}
	if o.Priorities != nil && len(o.Priorities) != o.Jobs {
		return fmt.Errorf("wanify: %d priorities for %d jobs", len(o.Priorities), o.Jobs)
	}
	if o.Dynamic && (o.Priorities != nil || o.Oversubscribe || o.Share == optimize.ShareRemaining) {
		return fmt.Errorf("wanify: dynamic job sets support fair or priority sharing only, with priorities given per AdmitJob")
	}
	return nil
}

// jobPolicies returns a copy of the slots' own connection policies,
// each consulting that slot's agents — what a spark.JobRun plugs in as
// its Policy.
func (f *Framework) jobPolicies() []spark.ConnPolicy {
	return slices.Clone(f.slots.policies)
}

// EnableJobSet is the multi-tenant Enable: snapshot → predict →
// optimize once → partition across jobs → deploy per-job agents (plus
// the shared arbitration controller when Config.Runtime is enabled;
// under o.Dynamic it starts over the still-empty roster, which it
// tolerates). Any previous deployment is stopped before the snapshot.
// It returns the predicted matrix, one connection policy per slot (a
// free slot's consults no agents: AdmitJob returns the one to use), and
// the measurement bill.
func (f *Framework) EnableJobSet(o JobSetOptions) (bwmatrix.Matrix, []spark.ConnPolicy, measure.Report, error) {
	if err := o.validate(); err != nil {
		return nil, nil, measure.Report{}, err
	}
	pred, rep := f.enable(o, false)
	return pred, f.jobPolicies(), rep, nil
}
