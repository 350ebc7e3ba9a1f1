package wanify

// The slot model — the one deployment every entry point is a
// configuration of. A deployment opens a fixed number of job SLOTS
// over one global plan; jobs occupy and free slots while everything
// runs:
//
//   - EnableJobSet opens N slots, all occupied in one rebalance under
//     the Share / Oversubscribe policy.
//   - Enable is its one-slot configuration: ONE slot, occupied at
//     once, that takes the whole plan and whose agents throttle
//     BW-rich links locally. DeployAgents opens the same slot over a
//     belief the caller supplies.
//   - Under JobSetOptions.Dynamic the N slots open FREE for the serving
//     control plane (internal/serve) to fill: AdmitJob claims a free slot,
//     re-partitions the current global plan across the now-occupied
//     slots, atomically narrows every running job's windows to its new
//     share (agent.SwapWindow — the same primitive the re-gauging
//     controller swaps with), and arms the slot's agents for the
//     newcomer; ReleaseJob stops a finished job's agents, frees its
//     slot, and widens the survivors' windows back out in the same way.
//   - One runtime controller arbitrates throughout: admission and
//     release reswizzle its roster (Controller.SetGroups) at the instant
//     they happen, and a re-gauge snapshot in flight simply applies
//     against the post-churn roster.
//
// Slot identity is stable: a job keeps its slot index for its whole
// life, so connection policies and the controller's per-group swap
// state never shift under a running job. A slot owns its agents and
// their policy for the deployment's life: ReleaseJob stops and keeps
// them, the next AdmitJob resets (agent.Reset) and re-arms them in the
// same VM order. Free slots carry share weight zero and are off the
// controller's roster.
//
// ShareRemaining is a roster-wide progress signal polled from one
// spark.JobSet; a churning roster has no single set to poll, so a
// Dynamic deployment rejects it.
//
// Every enable stops the previous deployment before it snapshots: the
// gauge measures the bare WAN, not one under the old deployment's tc
// limits with its agents and controller still armed.
//
// Ownership. A plan travels optimizer → partition → chunk → window, and
// every hop has one owner and makes no garbage:
//
//   - The global plan is freshly allocated per Optimize and never
//     written again; Framework.plan and the controller share it.
//   - Framework.partition writes the per-slot plans into buffers the
//     Framework keeps (weights, parts: optimize.ShareWeightsInto,
//     optimize.PartitionPlanInto). Its result — it is also the
//     controller's Deps.Partition — is valid until the next call. Under
//     Oversubscribe every slot aliases the global plan itself, so that
//     result is built fresh and never becomes a buffer to write into.
//   - rebalance chunks one slot at a time into Framework.rows
//     (agent.ChunkPlanInto, rows indexed by VMID); the controller keeps
//     its own rows across replans the same way.
//   - A row is BORROWED for the ApplyPlan/SwapWindow call: the agent
//     copies it into storage it allocated once, so the next slot's
//     chunk may overwrite the buffer at once and no agent ever holds a
//     slice of the deployment's.
//
// In steady state a ReleaseJob therefore allocates nothing (it reads the
// controller's prediction uncopied, Controller.Belief) and an AdmitJob
// only the epoch timers its re-armed agents' Start arms
// (TestChurnSteadyStateAllocs); TestDynamicChurnWindowsMatchFreshPartition
// holds every window, after every event, to a from-scratch
// PartitionPlan → ChunkPlan, and TestRearmedSlotIsAFreshAdmission every
// re-armed agent to a fresh one.

import (
	"fmt"

	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// slotState is a deployment's policy and occupancy.
type slotState struct {
	// opts is the share policy; opts.Jobs is the slot count.
	opts JobSetOptions
	// local marks Enable's deployment: the slot's agents install the
	// §3.2.2 throttles themselves. Otherwise agents run with Throttle
	// off and the deployment throttles at the cluster level from the
	// global plan.
	local bool
	used  []bool
	prio  []float64 // per-slot SharePriority weight (all zero: fair)
	// agents[g] are slot g's agents from its first occupation on (stopped
	// while free); policies[g] consults them (none before: AgentConn{}).
	agents   [][]*agent.Agent
	policies []spark.ConnPolicy
}

// enable stops any previous deployment, gauges the cluster once
// (snapshot → predict → optimize), opens the deployment, and starts the
// shared controller when Config.Runtime is enabled.
func (f *Framework) enable(o JobSetOptions, local bool) (bwmatrix.Matrix, measure.Report) {
	f.StopAgents()
	pred, rep := f.DetermineRuntimeBW()
	plan := f.Optimize(pred, o.Optimize)
	f.deploy(pred, plan, o, local)
	if f.cfg.Runtime.Enabled {
		f.startController()
	}
	return pred, rep
}

// deploy stops any previous deployment and opens o.Jobs slots over
// (pred, plan) — all occupied, their agents spawned in one rebalance,
// or all free under o.Dynamic.
func (f *Framework) deploy(pred bwmatrix.Matrix, plan optimize.Plan, o JobSetOptions, local bool) {
	f.StopAgents()
	f.deployed = pred.Clone()
	f.slots = &slotState{
		opts: o, local: local, used: make([]bool, o.Jobs), prio: make([]float64, o.Jobs),
		agents: make([][]*agent.Agent, o.Jobs), policies: make([]spark.ConnPolicy, o.Jobs),
	}
	copy(f.slots.prio, o.Priorities)
	f.groups = make([][]*agent.Agent, o.Jobs)
	for g := range f.slots.used {
		f.slots.used[g] = !o.Dynamic
		f.slots.policies[g] = spark.AgentConn{}
	}
	f.rebalance(pred, plan)
	if f.cfg.Agent.Throttle && !local {
		f.applyGlobalThrottles(plan)
	}
}

// DynamicSlots reports (occupied, total) slots of the deployment,
// (0, 0) when none is enabled.
func (f *Framework) DynamicSlots() (used, total int) {
	if f.slots == nil {
		return 0, 0
	}
	for _, u := range f.slots.used {
		if u {
			used++
		}
	}
	return used, len(f.slots.used)
}

// partition splits a global plan across the slots per the deployment's
// policy and current occupancy: every slot the WHOLE plan under
// Oversubscribe, otherwise optimize.PartitionPlan under the share
// weights — re-evaluated at every call, so bytes-remaining sharing
// tracks job progress — with free slots at weight zero. The result is
// the deployment's scratch (f.parts), valid until the next call; it is
// also the controller's Deps.Partition.
func (f *Framework) partition(plan optimize.Plan) []optimize.Plan {
	st := f.slots
	if st.opts.Oversubscribe {
		// Every slot aliases the plan itself, so this is never a dst
		// PartitionPlanInto may write through: it stays out of f.parts.
		parts := make([]optimize.Plan, len(st.used))
		for g := range parts {
			parts[g] = plan
		}
		return parts
	}
	var rem []float64
	if st.opts.Share == optimize.ShareRemaining && st.opts.Remaining != nil {
		rem = st.opts.Remaining()
	}
	f.weights = optimize.ShareWeightsInto(f.weights, st.opts.Share, len(st.used), st.prio, rem)
	for g, used := range st.used {
		if !used {
			f.weights[g] = 0
		}
	}
	f.parts = optimize.PartitionPlanInto(f.parts, plan, f.weights)
	return f.parts
}

// startController launches the deployment's one re-gauging controller
// over the slot roster (which may still be empty).
func (f *Framework) startController() *rgauge.Controller {
	if f.controller != nil {
		f.controller.Stop()
	}
	opts := f.slots.opts.Optimize
	deps := rgauge.Deps{
		Cluster: f.cfg.Cluster,
		SnapshotOpts: func() measure.Options {
			return measure.SnapshotOptions(f.rng.Derive("snapshot"))
		},
		// Features and prediction land in the framework's buffers; the
		// controller copies the prediction it keeps (Deps.Predict).
		Predict: func(snap bwmatrix.Matrix, stats []substrate.VMStats) bwmatrix.Matrix {
			f.features = dataset.FeaturesFromSnapshotInto(f.features, f.cfg.Cluster, snap, stats)
			f.predicted = f.model.PredictMatrixInto(f.predicted, f.features)
			return f.predicted
		},
		Optimize: func(pred bwmatrix.Matrix) optimize.Plan {
			return f.Optimize(pred, opts)
		},
		Groups:    f.groups,
		Partition: f.partition,
	}
	if f.cfg.Agent.Throttle && !f.slots.local {
		deps.OnPlanSwap = func(_ bwmatrix.Matrix, plan optimize.Plan) {
			f.applyGlobalThrottles(plan)
		}
	}
	f.controller = rgauge.Start(deps, f.cfg.Runtime, f.deployed, f.plan)
	return f.controller
}

// currentBelief returns the prediction/plan pair the deployment is
// currently running: the controller's when one arbitrates (it owns the
// replan history), the enable-time pair otherwise.
func (f *Framework) currentBelief() (bwmatrix.Matrix, optimize.Plan) {
	if f.controller != nil {
		return f.controller.Belief()
	}
	return f.deployed, f.plan
}

// AdmitJob claims a free slot for a new job with the given priority
// weight (ignored under ShareFair; non-positive counts as 1),
// re-partitions the current plan across the occupied slots — every
// running job's windows narrow to their new share within this call —
// and arms the slot's agents for the newcomer. It returns the slot
// index and the slot's connection policy, which the job's transfers
// must use. Errors when no slot is free (the caller queues).
func (f *Framework) AdmitJob(priority float64) (int, spark.ConnPolicy, error) {
	if f.slots == nil {
		return 0, nil, fmt.Errorf("wanify: AdmitJob without a deployment")
	}
	slot := -1
	for i, used := range f.slots.used {
		if !used {
			slot = i
			break
		}
	}
	if slot < 0 {
		return 0, nil, fmt.Errorf("wanify: all %d job slots occupied", len(f.slots.used))
	}
	if priority <= 0 {
		priority = 1
	}
	f.slots.used[slot] = true
	f.slots.prio[slot] = priority
	f.rebalance(f.currentBelief())
	return slot, f.slots.policies[slot], nil
}

// ReleaseJob frees a slot — the job finished or was canceled — stopping
// its agents (the slot keeps them for its next job) and widening the
// surviving jobs' windows back out to their new shares.
func (f *Framework) ReleaseJob(slot int) error {
	if f.slots == nil {
		return fmt.Errorf("wanify: ReleaseJob without a deployment")
	}
	if slot < 0 || slot >= len(f.slots.used) || !f.slots.used[slot] {
		return fmt.Errorf("wanify: release of unoccupied slot %d", slot)
	}
	for _, a := range f.groups[slot] {
		a.Stop()
	}
	f.groups[slot] = nil
	f.slots.used[slot] = false
	f.slots.prio[slot] = 0
	f.rebalance(f.currentBelief())
	return nil
}

// rebalance re-partitions the plan across the occupied slots after an
// occupancy change: an occupied slot not on the roster is a fresh
// admission and has its agents armed — built on the slot's first
// occupation by the deployment's one agent-per-VM loop, reset after
// that — every other one has its new windows swapped in, and the
// controller's roster follows.
func (f *Framework) rebalance(pred bwmatrix.Matrix, plan optimize.Plan) {
	sim := f.cfg.Cluster
	st := f.slots
	for g, part := range f.partition(plan) {
		if !st.used[g] {
			continue
		}
		f.rows = agent.ChunkPlanInto(f.rows, sim, pred, part)
		if f.groups[g] != nil {
			for _, a := range f.groups[g] {
				a.SwapWindow(f.rows[a.VM()])
			}
			continue
		}
		if st.agents[g] == nil {
			agentCfg := f.cfg.Agent
			agentCfg.Throttle = agentCfg.Throttle && st.local
			for dc := 0; dc < sim.NumDCs(); dc++ {
				for _, vm := range sim.VMsOfDC(dc) {
					st.agents[g] = append(st.agents[g], agent.New(sim, vm, agentCfg))
				}
			}
			st.policies[g] = spark.NewAgentConn(st.agents[g])
		}
		for _, a := range st.agents[g] {
			a.Reset()
			a.ApplyPlan(f.rows[a.VM()])
			a.Start()
		}
		f.groups[g] = st.agents[g]
	}
	if f.controller != nil {
		f.controller.SetGroups(f.groups)
	}
}

// SetModel swaps the framework's prediction model — the serving layer's
// model-cache refresh hook. The new model takes effect at the next
// prediction (a controller re-gauge or DetermineRuntimeBW); windows
// already deployed are untouched until then. Nil is ignored.
func (f *Framework) SetModel(m *predict.Model) {
	if m != nil {
		f.model = m
	}
}
