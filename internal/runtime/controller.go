// Package runtime implements WANify's mid-job re-gauging and
// rebalancing controller: the control loop that keeps the global
// connection plan honest while a job runs.
//
// The paper's headline claim is *runtime* gauging and balancing, but
// the base online path computes the global plan exactly once — at
// enable time — and leaves all mid-job adaptation to the per-VM AIMD
// agents, which can only move inside the [minCons, maxCons] windows
// that plan fixed. When WAN conditions shift materially after the plan
// is built (a diurnal swing, a congestion episode on one inter-region
// link), the windows themselves go stale: AIMD pins against a floor or
// ceiling that no longer matches the network, which is precisely the
// regime cross-layer systems like Terra argue plans must be revisited
// in. The controller closes that loop:
//
//   - Each epoch it aggregates the agents' WAN-monitor achieved rates
//     into a live cluster bandwidth matrix and compares each active
//     pair against the plan's achievable-bandwidth model (Eq. 3
//     evaluated at the agents' current window position — the
//     operational form of the prediction the plan was built from).
//   - Drift on a pair is a relative delta above driftFrac (0.3) that
//     is also absolutely significant (significantMbps, the paper's
//     100 Mbps threshold). Hysteresis demands the drift
//     persist for Config.HysteresisEpochs consecutive epochs, and a
//     cooldown keeps replans apart, so transient wobbles and the
//     controller's own plan swaps cause no churn. A staleness clock
//     (Config.StaleAfterS) can additionally force periodic re-gauging
//     even without observed drift, the §3.3.4 spirit applied to the
//     plan instead of the model.
//   - On trigger it re-snapshots the cluster with failure-aware
//     gauging (measure.BeginSnapshotInto — the probes run
//     concurrently with the job's own transfers, so the sample sees
//     exactly the contended WAN the paper says must be gauged, and a
//     probe a fault kills is retried). A snapshot that measured too
//     few pairs is refused (the coverage gate, DESIGN.md §11), and
//     repeated refusals open a circuit breaker. An accepted one has
//     its unmeasurable pairs filled with their last-known-good values;
//     the controller re-predicts the runtime bandwidth matrix from it,
//     re-runs global optimization, and atomically swaps the new
//     windows into every running agent (agent.SwapWindow) within one
//     substrate event. Remaining transfers rebalance mid-shuffle; flows
//     in flight keep their identity and their delivered bytes.
//
// The controller is deterministic for a fixed seed and substrate
// history, and entirely passive when nothing drifts: a stable network
// produces zero replans (see controller_test.go invariants).
//
// When several jobs share the cluster (Deps.Groups), one controller
// arbitrates for all of them: the live matrix aggregates every job's
// monitored rates per pair, a trigger re-gauges the cluster once, and
// the swap hands each job its partition of the new windows
// (Deps.Partition) in the same substrate event — N jobs never cost N
// probe sweeps, and no pair's combined windows ever exceed the global
// plan mid-swap.
package runtime

import (
	"fmt"
	"math"

	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/substrate"
)

// Config configures the re-gauging controller. The zero value (with
// Enabled false) is the base WANify behaviour: plan once, never
// revisit. The drift thresholds and the failure-aware gauging policy
// are fixed (the constants below), not settings.
type Config struct {
	// Enabled turns the controller on. Default off: all existing
	// single-plan runs (and their golden outputs) are untouched.
	Enabled bool
	// EpochS is the controller's aggregation epoch in seconds (default
	// 15 — three 5-second agent epochs per controller look).
	EpochS float64
	// HysteresisEpochs is how many consecutive drifted epochs arm the
	// trigger (default 2).
	HysteresisEpochs int
	// CooldownS is the minimum time between a plan swap and the next
	// trigger (default 2×EpochS), bounding replan churn.
	CooldownS float64
	// StaleAfterS forces a re-gauge when the current plan is older than
	// this many seconds even without drift (default 0: disabled).
	StaleAfterS float64
	// Hardened is ignored: every controller gauges failure-aware. The
	// field is kept only so that the repository benchmark, which still
	// sets it, compiles.
	Hardened bool
}

// Drift detection and failure-aware gauging run at fixed thresholds.
const (
	// driftFrac is the relative per-pair delta between the live
	// monitored rate and the plan's achievable-BW target beyond which
	// the pair counts as drifted.
	driftFrac = 0.3
	// significantMbps is the absolute floor a drifted delta must also
	// clear (the paper's significance threshold), so thin links cannot
	// trigger replans on noise.
	significantMbps = 100
	// minActiveMbps is the minimum live rate for a pair to participate
	// in drift detection; an idle link says nothing about the plan,
	// exactly as in the agents' skip rule. Pairs with registered
	// transfers still in flight participate regardless of their live
	// rate, so a blackout (demand present, nothing delivered) cannot
	// hide below the activity floor.
	minActiveMbps = 5
	// minDriftPairs is how many pairs must drift in one epoch for the
	// epoch to count toward the hysteresis streak.
	minDriftPairs = 1

	// minCoverage is the measured-pair fraction a re-gauge snapshot
	// must reach for the controller to replan from it. Below it the
	// controller enters degraded mode for that trigger: the current
	// plan is kept, the rejection is recorded as an incident, and the
	// circuit breaker advances.
	minCoverage = 0.6
	// blackoutFloorMbps is the least a filled pair replans at: the
	// 1 Mbps blackout belief internal/gda locks for believed-blackout
	// pairs, so a long-unmeasured pair reads as a blackout, not a hole.
	blackoutFloorMbps = 1.0
	// breakerThreshold consecutive rejected snapshots open the circuit
	// breaker, which then suppresses re-gauge triggers for
	// breakerBackoffEpochs controller epochs.
	breakerThreshold     = 3
	breakerBackoffEpochs = 4
)

func (c Config) withDefaults() Config {
	if c.EpochS == 0 {
		c.EpochS = 15
	}
	if c.HysteresisEpochs == 0 {
		c.HysteresisEpochs = 2
	}
	if c.CooldownS == 0 {
		c.CooldownS = 2 * c.EpochS
	}
	return c
}

// Deps are the hooks the controller re-plans through. The framework
// supplies closures over its model and optimizer options so this
// package needs no dependency on the top-level wanify package.
type Deps struct {
	// Cluster is the substrate the job runs on.
	Cluster substrate.Cluster
	// Agents is the single-job shorthand: a Deps with Agents and no
	// Partition hook is ONE group that receives every re-gauged plan
	// whole (Start normalises it so). Ignored when Partition is set.
	Agents []*agent.Agent
	// SnapshotOpts yields the measurement options (noise stream
	// included) for one re-gauge snapshot. Called once per replan.
	SnapshotOpts func() measure.Options
	// Predict maps collected snapshot parts to a runtime-BW matrix —
	// the Runtime Bandwidth Determination sub-module. Both directions
	// are borrowed: snap and stats are the controller's storage, valid
	// for the call and rewritten by the next re-gauge, and the returned
	// matrix may be storage the hook reuses — the controller copies it
	// before the hook can run again (that copy becomes Belief's) and
	// never writes it.
	Predict func(snap bwmatrix.Matrix, stats []substrate.VMStats) bwmatrix.Matrix
	// Optimize recomputes the global plan from a predicted matrix
	// (Algorithm 1 + Eq. 2–3, with the deployment's skew/rvec options).
	Optimize func(pred bwmatrix.Matrix) optimize.Plan

	// --- multi-job arbitration ---

	// Groups are per-job agent slices when several jobs share the
	// cluster under one controller (an empty group is an idle slot):
	// the controller aggregates monitored rates and targets *across
	// jobs* per DC pair — the live matrix it checks the plan against is
	// the cluster's total, exactly the contended WAN the paper says
	// must be gauged — re-gauges ONCE, and swaps each job's partitioned
	// windows atomically within the same substrate event.
	Groups [][]*agent.Agent
	// Partition splits a re-gauged global plan into one plan per
	// group (optimize.PartitionPlan under the deployment's share
	// weights, re-evaluated at swap time so bytes-remaining sharing
	// tracks job progress). Required with Groups. The result may be
	// scratch the deployment reuses: the controller reads it within
	// the swap and keeps nothing of it past the next Partition call.
	Partition func(plan optimize.Plan) []optimize.Plan
	// OnPlanSwap, when non-nil, runs after a replan's windows have
	// been swapped in (same substrate event) — the multi-job
	// deployment refreshes its cluster-level throttles here, since
	// per-job agents no longer own the tc limits. Its arguments are the
	// controller's new prediction and plan, Belief's pair: read-only,
	// and never written later.
	OnPlanSwap func(pred bwmatrix.Matrix, plan optimize.Plan)
}

// Reason states why a replan fired.
type Reason int8

// Replan reasons. The first three fire replans; the last two tag
// incidents (Incidents), which swap no plan.
const (
	ReasonDrift    Reason = iota // live rates departed from the plan
	ReasonStale                  // the plan aged past StaleAfterS
	ReasonEvacuate               // a DC was confirmed dead; plan routes around it
	ReasonDegraded               // snapshot rejected: coverage below minCoverage
	ReasonBreaker                // consecutive rejections opened the circuit breaker
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonStale:
		return "stale"
	case ReasonEvacuate:
		return "evacuate"
	case ReasonDegraded:
		return "degraded"
	case ReasonBreaker:
		return "breaker-open"
	default:
		return "drift"
	}
}

// Event records one completed replan.
type Event struct {
	// TriggeredAt is when the drift/staleness trigger armed and the
	// re-gauge snapshot began.
	TriggeredAt float64
	// AppliedAt is when the new windows swapped into the agents
	// (TriggeredAt + snapshot duration).
	AppliedAt float64
	// Reason is what fired the replan.
	Reason Reason
	// DriftedPairs and MaxDriftFrac describe the epoch that armed the
	// trigger (zero for pure staleness replans).
	DriftedPairs int
	MaxDriftFrac float64
	// EvacuatedDCs lists the data centers whose confirmed death fired
	// this replan (nil for drift/staleness replans).
	EvacuatedDCs []int
	// Cost is the measurement bill of the re-gauge snapshot.
	Cost measure.Report
	// Coverage is the measured-pair fraction of the snapshot behind
	// this event.
	Coverage float64
	// ReopenAt is when an opened circuit breaker re-arms
	// (ReasonBreaker incidents only).
	ReopenAt float64
}

// String renders the event for reports.
func (e Event) String() string {
	switch e.Reason {
	case ReasonDegraded:
		return fmt.Sprintf("t=%.0fs degraded (coverage=%.0f%%) plan kept",
			e.TriggeredAt, e.Coverage*100)
	case ReasonBreaker:
		return fmt.Sprintf("t=%.0fs breaker-open until t=%.0fs",
			e.TriggeredAt, e.ReopenAt)
	}
	if len(e.EvacuatedDCs) > 0 {
		return fmt.Sprintf("t=%.0fs %s (dcs=%v) applied t=%.0fs",
			e.TriggeredAt, e.Reason, e.EvacuatedDCs, e.AppliedAt)
	}
	return fmt.Sprintf("t=%.0fs %s (pairs=%d maxΔ=%.0f%%) applied t=%.0fs",
		e.TriggeredAt, e.Reason, e.DriftedPairs, e.MaxDriftFrac*100, e.AppliedAt)
}

// Controller is a running re-gauging loop bound to one deployment.
type Controller struct {
	cfg  Config
	deps Deps

	pred   bwmatrix.Matrix // prediction the current plan was built from
	plan   optimize.Plan
	planAt float64 // when the current plan was installed
	// rows is the per-VM chunk scratch of a swap, reused across groups
	// and replans: agents copy their row, nobody keeps it.
	rows []agent.PlanRow

	// live, expected and demand are the epoch's aggregates, rewritten
	// in place every epoch from the first on (live is nil before it).
	live     bwmatrix.Matrix     // monitored rates, summed per DC pair
	expected bwmatrix.Matrix     // agents' achievable-BW targets, summed
	demand   bwmatrix.ConnMatrix // transfers in flight per DC pair

	streak  int // consecutive drifted epochs
	pending *measure.PendingSnapshot
	// snap is the re-gauge snapshot every trigger begins again: one
	// pair list, chain list and collection scratch for the controller's
	// life (measure.BeginSnapshotInto).
	snap        *measure.PendingSnapshot
	deadHandled []bool // per-DC: evacuation replan already fired for it

	events      []Event
	driftEpochs int
	cancel      func()
	stopped     bool

	// --- failure-aware gauging state ---
	// lkg is the last value an accepted snapshot measured for each
	// pair, the deployment's prediction before any; it fills the pairs
	// a later snapshot could not measure.
	lkg          bwmatrix.Matrix
	incidents    []Event // rejected snapshots and breaker openings
	breakerFails int     // consecutive rejected snapshots
	breakerUntil float64 // open breaker suppresses triggers until then
	gauge        GaugeStats
}

// GaugeStats describes the failure-aware gauging state — what serve
// surfaces in /healthz, /v1/cluster and wanify.serve.gauge.* lines.
type GaugeStats struct {
	// Degraded reports whether the controller is refusing to replan:
	// the breaker is open, or the last snapshot was rejected.
	Degraded bool
	// LastCoverage is the measured-pair fraction of the most recent
	// collected snapshot (1 before any).
	LastCoverage float64
	// RejectedSnapshots counts snapshots refused for low coverage.
	RejectedSnapshots int
	// Retries counts replacement probes across all snapshots.
	Retries int
	// UnmeasurablePairs is the unmeasurable count of the most recent
	// snapshot.
	UnmeasurablePairs int
	// FusedPairs counts Unmeasurable pair readings filled with their
	// last-known-good value instead of a measurement, cumulatively.
	FusedPairs int
	// BreakerOpen reports whether the circuit breaker is open.
	BreakerOpen bool
	// BreakerUntil is when an open breaker re-arms (0 when closed).
	BreakerUntil float64
	// ConsecutiveFails is the current run of rejected snapshots.
	ConsecutiveFails int
}

// Start begins the re-gauging loop against the given deployment state:
// pred and plan are the prediction and plan the agents are currently
// running. Config defaults are applied; Start panics on nil deps since
// a controller without a replan path is meaningless.
func Start(deps Deps, cfg Config, pred bwmatrix.Matrix, plan optimize.Plan) *Controller {
	if deps.Cluster == nil || deps.SnapshotOpts == nil || deps.Predict == nil || deps.Optimize == nil {
		panic("runtime: controller needs cluster, snapshot, predict and optimize deps")
	}
	if deps.Partition == nil {
		if len(deps.Groups) > 0 {
			panic("runtime: multi-job controller needs a partition hook")
		}
		deps.Groups = [][]*agent.Agent{deps.Agents}
		deps.Partition = func(plan optimize.Plan) []optimize.Plan { return []optimize.Plan{plan} }
	}
	c := &Controller{
		cfg:    cfg.withDefaults(),
		deps:   deps,
		pred:   pred.Clone(),
		plan:   plan,
		planAt: deps.Cluster.Now(),
		// Before any snapshot lands, the prediction the current plan
		// was built from is the best last-known-good.
		lkg:   pred.Clone(),
		gauge: GaugeStats{LastCoverage: 1},
	}
	c.cancel = deps.Cluster.Every(c.cfg.EpochS, c.epoch)
	return c
}

// Stop halts the loop. A snapshot in flight is abandoned (its probes
// are torn down without being applied).
func (c *Controller) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.cancel()
	if c.pending != nil {
		// Tear the probes down; the swap timer will find c.stopped.
		c.pending.Abandon()
		c.pending = nil
	}
}

// SetGroups swaps the controller's arbitration roster while it runs —
// the attach/detach path a serving deployment uses as jobs arrive and
// finish. groups are the per-slot agent slices the controller
// aggregates monitored rates over and a replan partitions windows
// across (empty/nil slots are idle and receive nothing). The substrate
// is single-timeline, so calling this from a substrate event is ordered
// with every epoch tick; a re-gauge snapshot already in flight applies
// its swap against the NEW roster, since the swap reads the deps at
// apply time.
func (c *Controller) SetGroups(groups [][]*agent.Agent) { c.deps.Groups = groups }

// Events returns the completed replans.
func (c *Controller) Events() []Event { return c.events }

// Replans returns how many plan swaps have been applied.
func (c *Controller) Replans() int { return len(c.events) }

// Incidents returns the degraded-mode record: every rejected snapshot
// and breaker opening. These never swap a plan and never count toward
// Replans.
func (c *Controller) Incidents() []Event { return c.incidents }

// Gauge returns the failure-aware gauging state.
func (c *Controller) Gauge() GaugeStats {
	g := c.gauge
	g.BreakerOpen = c.deps.Cluster.Now() < c.breakerUntil
	if g.BreakerOpen {
		g.BreakerUntil = c.breakerUntil
	}
	g.ConsecutiveFails = c.breakerFails
	g.Degraded = g.BreakerOpen || c.breakerFails > 0
	return g
}

// Degraded reports whether the controller is currently refusing to
// replan.
func (c *Controller) Degraded() bool { return c.Gauge().Degraded }

// DriftEpochs returns how many epochs counted toward a drift streak —
// a churn diagnostic: on a stable network this stays zero.
func (c *Controller) DriftEpochs() int { return c.driftEpochs }

// Belief returns the prediction the active plan was built from, and
// the plan, without a copy. The caller must not write the matrix: the
// controller replaces its prediction at a plan swap (with the one copy
// of Predict's result a replan makes) and never writes one in place, so
// the returned matrix stays as it is, if stale, after a later swap.
func (c *Controller) Belief() (bwmatrix.Matrix, optimize.Plan) { return c.pred, c.plan }

// CurrentPlan returns the active global plan.
func (c *Controller) CurrentPlan() optimize.Plan { return c.plan }

// Live returns a copy of the latest aggregated live bandwidth matrix
// (nil before the first epoch).
func (c *Controller) Live() bwmatrix.Matrix {
	if c.live == nil {
		return nil
	}
	return c.live.Clone()
}

// epoch is one controller tick: aggregate, compare, maybe trigger.
func (c *Controller) epoch(now float64) {
	if c.stopped || c.pending != nil {
		return
	}
	c.aggregate()
	drifted, maxFrac := c.drift()
	if drifted >= minDriftPairs {
		c.streak++
		c.driftEpochs++
	} else {
		c.streak = 0
	}

	// A confirmed-dead DC triggers evacuation: re-gauge, re-optimize
	// over the surviving topology, and swap the evacuated plan in. It
	// bypasses hysteresis and cooldown — waiting cannot resurrect a DC —
	// but still respects the one-snapshot-at-a-time guard: a blocked
	// detection simply retries next epoch, and the DC is marked handled
	// only when its replan actually starts.
	if evac := c.newlyDead(); len(evac) > 0 {
		c.beginRegauge(now, ReasonEvacuate, drifted, maxFrac, evac)
		return
	}
	// An open circuit breaker suppresses drift and staleness triggers:
	// N consecutive snapshots came back unusable, so re-probing every
	// epoch only burns measurement budget on a WAN that cannot answer.
	// Evacuation (above) still passes — a confirmed-dead DC needs no
	// snapshot quality to be worth routing around.
	if now < c.breakerUntil {
		return
	}
	if now-c.planAt < c.cfg.CooldownS {
		return
	}
	switch {
	case c.streak >= c.cfg.HysteresisEpochs:
		c.beginRegauge(now, ReasonDrift, drifted, maxFrac, nil)
	case c.cfg.StaleAfterS > 0 && now-c.planAt >= c.cfg.StaleAfterS:
		c.beginRegauge(now, ReasonStale, drifted, maxFrac, nil)
	}
}

// newlyDead lists DCs with no living VM whose evacuation has not yet
// been handled.
func (c *Controller) newlyDead() []int {
	n := c.deps.Cluster.NumDCs()
	if c.deadHandled == nil {
		c.deadHandled = make([]bool, n)
	}
	var out []int
	for dc := 0; dc < n; dc++ {
		if c.deadHandled[dc] || c.dcAlive(dc) {
			continue
		}
		out = append(out, dc)
	}
	return out
}

// dcAlive reports whether any VM of the DC still accepts flows.
func (c *Controller) dcAlive(dc int) bool {
	for _, vm := range c.deps.Cluster.VMsOfDC(dc) {
		if c.deps.Cluster.VMAlive(vm) {
			return true
		}
	}
	return false
}

// aggregate sums the agents' last-epoch WAN-monitor rates, current
// achievable-BW targets and in-flight transfer counts into the
// controller's DC-level matrices (agent.AddTo), cleared first.
func (c *Controller) aggregate() {
	if c.live == nil {
		n := c.deps.Cluster.NumDCs()
		c.live, c.expected, c.demand = bwmatrix.New(n), bwmatrix.New(n), bwmatrix.NewConn(n)
	} else {
		for i := range c.live {
			clear(c.live[i])
			clear(c.expected[i])
			clear(c.demand[i])
		}
	}
	for _, group := range c.deps.Groups {
		for _, a := range group {
			if !c.deps.Cluster.VMAlive(a.VM()) {
				continue // a dead VM's agent reports nothing but stale state
			}
			i := a.DC()
			a.AddTo(c.live[i], c.expected[i], c.demand[i])
		}
	}
}

// drift counts the active pairs whose live rate departs from the
// plan's target both relatively (driftFrac) and absolutely
// (significantMbps), returning the count and the worst relative delta.
// A pair is active when its live rate clears the floor or transfers
// are still in flight on it — a dead-but-demanded link is the
// strongest drift signal there is, not an idle one.
func (c *Controller) drift() (pairs int, maxFrac float64) {
	live, expected, demand := c.live, c.expected, c.demand
	n := live.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || expected[i][j] <= 0 {
				continue
			}
			if live[i][j] < minActiveMbps && demand[i][j] == 0 {
				continue
			}
			diff := math.Abs(live[i][j] - expected[i][j])
			frac := diff / expected[i][j]
			if frac > driftFrac && diff > significantMbps {
				pairs++
				if frac > maxFrac {
					maxFrac = frac
				}
			}
		}
	}
	return pairs, maxFrac
}

// beginRegauge starts the re-gauge snapshot and schedules the plan
// swap for the moment the probe window closes. evac lists DCs being
// evacuated by this replan (nil otherwise); they are marked handled
// here, when the replan actually starts.
func (c *Controller) beginRegauge(now float64, reason Reason, drifted int, maxFrac float64, evac []int) {
	for _, dc := range evac {
		c.deadHandled[dc] = true
	}
	ps := measure.BeginSnapshotInto(c.snap, c.deps.Cluster, c.deps.SnapshotOpts())
	c.snap, c.pending = ps, ps
	c.deps.Cluster.After(ps.DurationS(), func(applied float64) {
		if c.stopped || c.pending != ps {
			return // Stop drained the snapshot already
		}
		c.pending = nil
		c.apply(ps.Collect(), now, applied, reason, drifted, maxFrac, evac)
	})
}

// apply consumes a collected partial snapshot: reject it and advance
// the circuit breaker when measured coverage is below the threshold
// (degraded mode — the current plan keeps flying), otherwise fill its
// Unmeasurable pairs with their last-known-good values, turn it into
// the next plan and swap that into the agents.
func (c *Controller) apply(part *measure.PartialSnapshot, now, applied float64, reason Reason, drifted int, maxFrac float64, evac []int) {
	cov := part.Coverage()
	c.gauge.LastCoverage = cov
	c.gauge.Retries += part.Retries()
	c.gauge.UnmeasurablePairs = part.Unmeasurable()
	// Evacuation bypasses the coverage gate: a dead DC is a fact, not a
	// measurement, and its own pairs are what drag coverage down (2/n of
	// the ordered pairs on an n-DC cluster — a 3- or 4-DC cluster can
	// never clear the 0.6 gate with one DC dark). beginRegauge already
	// marked the DC handled, so gating here would refuse the evacuation
	// forever; instead the unmeasurable pairs take their last-known-good
	// values below and the dead DC's rows are zeroed after prediction.
	if cov < minCoverage && reason != ReasonEvacuate {
		// Degraded mode: too few pairs answered for the snapshot to
		// describe the WAN. Replanning from it would swap a poisoned
		// plan into every agent, so the controller refuses: the
		// current plan is kept (planAt untouched — the staleness that
		// triggered this keeps retriggering once the WAN answers
		// again; the drift streak also survives, so a standing drift
		// signal does not rebuild hysteresis from scratch after every
		// rejection), the rejection is recorded, and enough consecutive
		// rejections open the circuit breaker.
		c.gauge.RejectedSnapshots++
		c.breakerFails++
		c.incidents = append(c.incidents, Event{
			TriggeredAt:  now,
			AppliedAt:    applied,
			Reason:       ReasonDegraded,
			DriftedPairs: drifted,
			MaxDriftFrac: maxFrac,
			EvacuatedDCs: evac,
			Cost:         part.Bill,
			Coverage:     cov,
		})
		if c.breakerFails >= breakerThreshold {
			c.breakerUntil = applied + breakerBackoffEpochs*c.cfg.EpochS
			c.incidents = append(c.incidents, Event{
				TriggeredAt: applied,
				Reason:      ReasonBreaker,
				Coverage:    cov,
				ReopenAt:    c.breakerUntil,
			})
			c.breakerFails = 0 // re-armed fresh after the backoff
		}
		return
	}
	if cov >= minCoverage {
		// Only a snapshot that genuinely cleared the gate re-arms the
		// breaker counter — an evacuation swapped at low coverage says
		// nothing about whether the WAN can be measured again.
		c.breakerFails = 0
	}
	// Last-known-good fill, in place: a measured pair replans at its
	// measurement and becomes that pair's last-known-good; an
	// unmeasurable pair replans at its last-known-good, floored at the
	// 1 Mbps blackout belief gda locks for believed-blackout pairs —
	// never a fabricated zero.
	for k, p := range part.Pairs {
		i, j := p[0], p[1]
		if part.Samples[k].Outcome == measure.PairUnmeasurable {
			part.BW[i][j] = max(c.lkg[i][j], blackoutFloorMbps)
			c.gauge.FusedPairs++
		} else {
			c.lkg[i][j] = part.BW[i][j]
		}
	}
	// The one copy of the prediction a replan makes: Predict's result
	// is borrowed, and this matrix becomes the controller's belief.
	pred := c.deps.Predict(part.BW, part.Stats).Clone()
	// A dead DC carries no traffic whatever the model extrapolates:
	// zero its rows and columns so optimization runs over the
	// surviving topology only (the optimizer's bandwidth floor keeps
	// its descent finite on the zeroed pairs).
	for dc := 0; dc < pred.N(); dc++ {
		if c.dcAlive(dc) {
			continue
		}
		for j := 0; j < pred.N(); j++ {
			pred[dc][j], pred[j][dc] = 0, 0
		}
	}
	plan := c.deps.Optimize(pred)
	// Atomic swap: every agent receives its chunk of the new plan
	// within this one substrate event, so no transfer ever observes
	// a half-old, half-new plan. Multi-job deployments re-gauge once
	// and swap each job's partition of the shared windows here —
	// still one event, so no job ever runs against another job's
	// stale share either.
	parts := c.deps.Partition(plan)
	for g, group := range c.deps.Groups {
		if len(group) == 0 {
			continue // idle slot of a dynamic deployment
		}
		c.rows = agent.ChunkPlanInto(c.rows, c.deps.Cluster, pred, parts[g])
		for _, a := range group {
			a.SwapWindow(c.rows[a.VM()])
		}
	}
	if c.deps.OnPlanSwap != nil {
		c.deps.OnPlanSwap(pred, plan)
	}
	c.pred = pred
	c.plan = plan
	c.planAt = applied
	c.streak = 0
	c.events = append(c.events, Event{
		TriggeredAt:  now,
		AppliedAt:    applied,
		Reason:       reason,
		DriftedPairs: drifted,
		MaxDriftFrac: maxFrac,
		EvacuatedDCs: evac,
		Cost:         part.Bill,
		Coverage:     cov,
	})
}

// TotalCost sums the measurement bills of all replans, plus those of
// rejected snapshots — a snapshot the coverage gate refused still
// moved probe bytes over the WAN.
func (c *Controller) TotalCost() measure.Report {
	var rep measure.Report
	for _, e := range c.events {
		rep = rep.Add(e.Cost)
	}
	for _, e := range c.incidents {
		rep = rep.Add(e.Cost)
	}
	return rep
}
