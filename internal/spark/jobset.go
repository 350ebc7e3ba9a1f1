package spark

import (
	"fmt"
	"math"

	"github.com/wanify/wanify/internal/substrate"
)

// JobRun binds one job to the scheduler and connection policy it runs
// under inside a JobSet. Policies are per-job on purpose: under WANify
// multi-tenancy each job's agents hold that job's slice of the global
// plan (optimize.PartitionPlan), so its transfers must consult its own
// Connections Managers, not a cluster-wide pool.
type JobRun struct {
	Job    Job
	Sched  Scheduler
	Policy ConnPolicy
	// StartDelayS delays the job's first stage relative to Run (0 =
	// the job enters with the set).
	StartDelayS float64
}

// JobSetResult is the outcome of a concurrent multi-job execution.
type JobSetResult struct {
	// Results holds one RunResult per job, in input order. JCTSeconds
	// is measured from each job's own (possibly delayed) start.
	Results []RunResult
	// MakespanS is the time from Run to the last job's completion.
	MakespanS float64
}

// jobPhase is where a running job currently is.
type jobPhase int8

const (
	phaseWaiting  jobPhase = iota // start delay not reached
	phaseTransfer                 // WAN transfers in flight
	phaseCompute                  // compute timer pending
	phaseDone
)

// jobState is one job's event-driven execution state.
type jobState struct {
	idx       int
	run       JobRun
	layout    []float64
	stage     int
	phase     jobPhase
	startedAt float64
	// wakeAt is the instant of the job's pending self-scheduled timer
	// (start delay, compute end, recovery wave); a value not after the
	// clock means none is pending. Run's drive loop steers by it.
	wakeAt float64

	// Transfer-phase bookkeeping.
	transferStart float64
	stageLists
	flowsLeft    int
	curPairs     []PairStat // the stage's planned transfer, its report's Pairs
	curPlacement Placement

	// loadDeltas is the job's live CPU-load contribution, held between
	// a phase's shift-in and shift-out. Per job, because concurrent
	// jobs' phases overlap in time. loadHeld marks a live contribution
	// so releases are idempotent (see holdLoad).
	loadDeltas []float64
	loadHeld   bool

	// Fault-recovery state (see recovery.go), reset per stage.
	failedRecs   []*flowRec
	recovering   bool // a recovery wave is scheduled
	attempts     int  // waves run this stage
	stLost       float64
	stRecovered  float64
	stRecomputeS float64
	stWaves      int

	res RunResult

	// wd is what this job's pending transfer deadlines hold of it.
	wd *watchdog
}

// stageLists is a job's transfer bookkeeping for its current stage, in
// launch order: the pairs, their flows and the flows' records (a
// recovery wave appends to all three). A job empties and refills them
// from one stage to the next, and a finished job hands them to its set
// for the next job admitted.
type stageLists struct {
	pairs []*pendingPair
	flows []substrate.Flow
	recs  []*flowRec
}

// JobSet interleaves N jobs' stages over one engine's shared substrate
// clock — the engine's only job runner (RunJob is a set of one). Each
// job is an event-driven state machine: stage transfers complete
// through flow callbacks, compute phases through substrate timers, and
// whoever drives the clock — Run for a closed set, an external driver
// for an open one — only advances it. The jobs' transfers therefore
// genuinely contend — flows of different jobs share DC-pair capacity
// inside the same allocator, and their compute loads compose through
// the engine's load ledger (each job sees the TCP slowdown the others'
// busy CPUs cause, and nobody's stage boundary clobbers anybody's load).
//
// Build one with NewJobSet, then call Run. RemainingBytes may be
// polled while Run drives the clock (from substrate callbacks, e.g.
// the re-gauging controller's bytes-remaining share weighting).
type JobSet struct {
	eng    *Engine
	states []*jobState

	startAt      float64
	running      int
	err          error
	computeRates []float64
	inFlight     []substrate.Flow // Run's scratch list of undrained transfers
	row, col     []float64        // plannedPairs' migration factors

	// Recycled transfer bookkeeping (see recycle): pairs and records no
	// flow can reach, and the emptied lists of finished jobs.
	freePairs []*pendingPair
	freeRecs  []*flowRec
	spare     []stageLists

	// Open-mode state (NewOpenJobSet): an open set accepts Admit and
	// Cancel while an external driver advances the clock, instead of
	// being run to completion over a fixed roster by Run.
	open   bool
	onDone func(idx int, res RunResult)
}

// NewJobSet validates the jobs against the engine's cluster and
// prepares the runner. Policies default to SingleConn when nil.
func NewJobSet(e *Engine, runs []JobRun) (*JobSet, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("spark: job set needs at least one job")
	}
	s := &JobSet{eng: e, computeRates: e.ComputeRates()}
	for _, run := range runs {
		if _, err := s.add(run); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// add validates one run and appends its not-yet-started state machine —
// the single constructor behind closed rosters (NewJobSet) and open
// admissions (Admit).
func (s *JobSet) add(run JobRun) (*jobState, error) {
	if err := run.Job.Validate(s.eng.sim.NumDCs()); err != nil {
		return nil, err
	}
	if run.Sched == nil {
		return nil, fmt.Errorf("spark: job %q has no scheduler", run.Job.Name)
	}
	if run.Policy == nil {
		run.Policy = SingleConn{}
	}
	if run.StartDelayS < 0 {
		return nil, fmt.Errorf("spark: job %q has negative start delay", run.Job.Name)
	}
	js := &jobState{
		idx:    len(s.states),
		run:    run,
		layout: append([]float64(nil), run.Job.InputBytes...),
		res: RunResult{
			Job:            run.Job.Name,
			Scheduler:      run.Sched.Name(),
			MinShuffleMbps: math.Inf(1),
		},
	}
	if k := len(s.spare); k > 0 {
		js.stageLists, s.spare = s.spare[k-1], s.spare[:k-1]
	}
	s.states = append(s.states, js)
	s.running++
	return js, nil
}

// arm starts the job's first stage once its start delay has passed —
// at once, without a trip through the timer queue, when there is none.
func (s *JobSet) arm(js *jobState) {
	start := func(now float64) {
		if s.err != nil || js.phase == phaseDone {
			return
		}
		js.startedAt = now
		s.startStage(js, now)
	}
	if js.run.StartDelayS == 0 {
		start(s.eng.sim.Now())
	} else {
		s.wake(js, js.run.StartDelayS, start)
	}
}

// wake schedules fn on the job's own timer delay seconds out and
// records the instant, so Run can stop the clock exactly there.
func (s *JobSet) wake(js *jobState, delay float64, fn func(now float64)) {
	js.wakeAt = s.eng.sim.Now() + delay
	s.eng.sim.After(delay, fn)
}

// RemainingBytes reports each job's current resident bytes (the data
// its remaining stages still have to process); finished jobs report 0.
// It is an ordinal signal for capacity sharing (optimize.
// ShareRemaining), not a WAN-volume prediction — how much of it will
// actually cross the WAN depends on placements not yet chosen.
func (s *JobSet) RemainingBytes() []float64 {
	out := make([]float64, len(s.states))
	for i, js := range s.states {
		if js.phase == phaseDone {
			continue
		}
		for _, b := range js.layout {
			out[i] += b
		}
	}
	return out
}

// NewOpenJobSet prepares an OPEN job set: one that starts with no jobs
// and accepts Admit (and Cancel) while something else — a serving
// control plane, a test harness — advances the substrate clock. Where
// Run owns the drive loop for a fixed roster, an open set is pure
// event machinery: admissions arm their start events at the current
// instant, jobs run exactly as under Run (same contention, same load
// ledger, same recovery), and completion surfaces through the OnJobDone
// hook instead of a collected result. The per-stage transfer watchdogs
// still bound liveness; the caller polls Err for a failed set.
func NewOpenJobSet(e *Engine) *JobSet {
	return &JobSet{eng: e, open: true, startAt: e.sim.Now(), computeRates: e.ComputeRates()}
}

// OnJobDone registers the completion hook an open set calls — within
// the substrate event that finishes the job — with the job's Admit
// index and final result. Canceled jobs do not fire it: the canceller
// already knows.
func (s *JobSet) OnJobDone(fn func(idx int, res RunResult)) { s.onDone = fn }

// Err reports the error that failed the set, nil while it is healthy.
func (s *JobSet) Err() error { return s.err }

// Running reports how many admitted jobs have not yet finished.
func (s *JobSet) Running() int { return s.running }

// Result returns the final result of job idx, with ok false while the
// job is still running (or was canceled mid-flight, leaving partials).
func (s *JobSet) Result(idx int) (RunResult, bool) {
	if idx < 0 || idx >= len(s.states) {
		return RunResult{}, false
	}
	js := s.states[idx]
	return js.res, js.phase == phaseDone
}

// Admit adds a job to an open set at the current simulated instant and
// returns its index (the identity OnJobDone and Cancel use). The job's
// first stage starts after run.StartDelayS, exactly as under Run.
func (s *JobSet) Admit(run JobRun) (int, error) {
	if !s.open {
		return 0, fmt.Errorf("spark: Admit on a closed job set (use NewOpenJobSet)")
	}
	if s.err != nil {
		return 0, fmt.Errorf("spark: job set already failed: %w", s.err)
	}
	js, err := s.add(run)
	if err != nil {
		return 0, err
	}
	s.arm(js)
	return js.idx, nil
}

// Cancel tears job idx out of an open set at the current instant: its
// in-flight flows stop (delivered bytes stay delivered — substrate
// flows keep their history), its held CPU load releases, and its state
// machine parks on done so every pending timer (compute completion,
// watchdog, recovery wave) finds a finished job and fires inert. The
// job's partial result remains readable via Result-with-ok-false
// semantics; co-tenants are untouched.
func (s *JobSet) Cancel(idx int) error {
	if !s.open {
		return fmt.Errorf("spark: Cancel on a closed job set")
	}
	if idx < 0 || idx >= len(s.states) {
		return fmt.Errorf("spark: cancel of unknown job %d", idx)
	}
	js := s.states[idx]
	if js.phase == phaseDone {
		return fmt.Errorf("spark: job %q already finished", js.run.Job.Name)
	}
	for _, f := range js.flows {
		if !f.Done() {
			f.Stop()
		}
	}
	s.releaseLoad(js)
	s.recycle(js)
	s.retire(js)
	s.running--
	return nil
}

// Run executes all jobs concurrently and returns when the last one
// finishes — with the clock on that exact instant. The first failing
// job aborts the whole set, stopping every outstanding transfer.
func (s *JobSet) Run() (JobSetResult, error) {
	if s.open {
		return JobSetResult{}, fmt.Errorf("spark: Run on an open job set (drive the clock externally)")
	}
	sim := s.eng.sim
	s.startAt = sim.Now()
	for _, js := range s.states {
		s.arm(js)
	}

	// Drive the shared clock. Every state transition happens inside
	// substrate events; the loop only picks how far to advance, and
	// always stops on an event of the set itself: the earliest pending
	// job timer when there is one (the substrate steps there anyway, so
	// no flow integration is sliced), otherwise the drain of the
	// in-flight transfers. A job cannot finish before its own timer or
	// its own flows, so the clock never overshoots the last completion.
	// Liveness: every listed flow's watchdog fires within
	// MaxStageTransferS, so the wait below cannot expire on a healthy
	// set, and a set with neither a timer nor a transfer is stuck.
	for s.running > 0 && s.err == nil {
		now, wakeAt := sim.Now(), math.Inf(1)
		flows := s.inFlight[:0]
		for _, js := range s.states {
			if js.phase == phaseDone {
				continue
			}
			if js.wakeAt > now {
				wakeAt = math.Min(wakeAt, js.wakeAt)
			}
			for _, f := range js.flows {
				if !f.Done() {
					flows = append(flows, f)
				}
			}
		}
		s.inFlight = flows
		switch {
		case !math.IsInf(wakeAt, 1):
			sim.RunUntil(wakeAt)
		case len(flows) == 0:
			s.abort(fmt.Errorf("spark: job set stalled at t=%.0fs with %d jobs unfinished", now, s.running))
		default:
			if err := sim.AwaitFlows(s.eng.MaxStageTransferS, flows...); err != nil {
				s.abort(fmt.Errorf("spark: job set stalled: %w", err))
			}
		}
	}
	if s.err != nil {
		return JobSetResult{}, s.err
	}

	out := JobSetResult{}
	for _, js := range s.states {
		out.Results = append(out.Results, js.res)
		end := js.startedAt + js.res.JCTSeconds
		if m := end - s.startAt; m > out.MakespanS {
			out.MakespanS = m
		}
	}
	return out, nil
}

// flowDone is a flow's completion callback (its record's done): it
// settles the pair's accounting and counts the stage's outstanding
// flows. The stage's transfer phase ends only when no flow is in flight
// AND no failure is awaiting a recovery wave.
func (s *JobSet) flowDone(rec *flowRec) {
	js, pp := rec.js, rec.pp
	js.flowsLeft--
	pp.delivered += rec.bytes
	pp.left--
	if pp.left == 0 {
		pp.done = s.eng.sim.Now()
	}
	if js.flowsLeft == 0 && !js.recovering && len(js.failedRecs) == 0 {
		s.finishTransfers(js, s.eng.sim.Now())
	}
}

// takeRec takes a record off the free list, or allocates one and builds
// its two callbacks — the only closures a flow of this set ever gets.
func (s *JobSet) takeRec() *flowRec {
	if k := len(s.freeRecs); k > 0 {
		rec := s.freeRecs[k-1]
		s.freeRecs = s.freeRecs[:k-1]
		return rec
	}
	rec := &flowRec{}
	rec.done = func() { s.flowDone(rec) }
	rec.fail = func() { s.flowFailed(rec) }
	return rec
}

// takePair takes a pair off the free list, or allocates one.
func (s *JobSet) takePair() *pendingPair {
	if k := len(s.freePairs); k > 0 {
		pp := s.freePairs[k-1]
		s.freePairs = s.freePairs[:k-1]
		return pp
	}
	return new(pendingPair)
}

// recycle hands the job's stage bookkeeping back to the set, once every
// flow of the stage has finished (finishTransfers) or been stopped
// (Cancel) and the stage report has read it. A finished flow holds no
// callback (netsim drops them in finishFlow), so no flow can reach a
// record any more, and the next stage — this job's or another's — may
// reuse it. Each record is zeroed but for its callbacks: a late call on
// one would panic on its nil js, never act for the job that reuses it.
func (s *JobSet) recycle(js *jobState) {
	for _, pp := range js.pairs {
		*pp = pendingPair{}
	}
	for _, rec := range js.recs {
		*rec = flowRec{done: rec.done, fail: rec.fail}
	}
	s.freePairs = append(s.freePairs, js.pairs...)
	s.freeRecs = append(s.freeRecs, js.recs...)
	clear(js.pairs)
	clear(js.flows)
	clear(js.recs)
	js.pairs, js.flows, js.recs = js.pairs[:0], js.flows[:0], js.recs[:0]
	js.failedRecs = nil
}

// retire parks a job that will not transfer again, and hands its
// emptied lists to the set for the next job admitted.
func (s *JobSet) retire(js *jobState) {
	js.finish()
	s.spare = append(s.spare, js.stageLists)
	js.stageLists = stageLists{}
}

// startStage places the current stage and launches its WAN transfers;
// with nothing to move it proceeds straight to compute.
func (s *JobSet) startStage(js *jobState, now float64) {
	e := s.eng
	n := e.sim.NumDCs()
	if js.stage == len(js.run.Job.Stages) {
		s.finishJob(js, now)
		return
	}
	stage := js.run.Job.Stages[js.stage]
	js.failedRecs, js.recovering, js.attempts = nil, false, 0
	js.stLost, js.stRecovered, js.stRecomputeS, js.stWaves = 0, 0, 0, 0
	var alive []bool
	if e.Recovery.Enabled {
		alive = aliveDCs(e.sim)
		if countAlive(alive) == 0 {
			s.abort(fmt.Errorf("spark: job %q: no data center left alive", js.run.Job.Name))
			return
		}
		s.repairLayout(js, alive)
	}
	p := js.run.Sched.Place(js.stage, stage, js.layout).Normalize()
	if len(p) != n {
		s.abort(fmt.Errorf("spark: scheduler %q returned %d fractions for %d DCs",
			js.run.Sched.Name(), len(p), n))
		return
	}
	if alive != nil {
		p = maskPlacement(p, alive)
	}
	js.curPairs = s.plannedPairs(stage.Kind, js.layout, p)
	js.curPlacement = p
	js.transferStart = now
	js.phase = phaseTransfer

	// The lists are empty here: the previous stage recycled its records.
	js.res.WANBytes += s.launchTransfers(js, js.curPairs, true)
	js.flowsLeft = len(js.flows)

	if len(js.flows) == 0 {
		s.finishTransfers(js, now)
		return
	}
	js.loadDeltas = e.ledger().uniform(js.loadDeltas, transferCPULoad)
	s.holdLoad(js)

	s.watch(js, "transfers")
	// Arm failure handlers last: a flow born failed (endpoint already
	// dead) fires its handler synchronously from inside armRecs, which
	// needs the counters and watchdog above in place.
	armRecs(js.recs)
}

// plannedPairs is a stage's planned transfer as its report's pair list:
// MigrationMatrix's or ShuffleMatrix's entries, without the matrix.
func (s *JobSet) plannedPairs(kind StageKind, layout []float64, p Placement) []PairStat {
	if kind != MapKind {
		return pairsOf(layout, p)
	}
	if len(s.row) != len(layout) {
		s.row, s.col = make([]float64, len(layout)), make([]float64, len(layout))
	}
	migrationFactors(s.row, s.col, layout, p)
	return pairsOf(s.row, s.col)
}

// watch arms the liveness watchdog of a transfer phase or recovery
// wave: one that outlives MaxStageTransferS fails the set, naming the
// flows still pending.
func (s *JobSet) watch(js *jobState, what string) {
	if js.wd == nil {
		js.wd = &watchdog{s: s, js: js}
	}
	wd, stageIdx := js.wd, js.stage
	s.eng.sim.After(s.eng.MaxStageTransferS, func(float64) {
		s, js := wd.s, wd.js
		if js == nil || s.err != nil || js.phase != phaseTransfer || js.stage != stageIdx {
			return
		}
		e := s.eng
		s.abort(fmt.Errorf("spark: job %q stage %q: %s not drained after %.1fs of simulated time (pending: %s)",
			js.run.Job.Name, js.run.Job.Stages[stageIdx].Name, what, e.MaxStageTransferS,
			substrate.DescribePending(e.sim, js.flows)))
	})
}

// watchdog is what a pending transfer deadline holds of its job. The
// deadline outlives the job by up to MaxStageTransferS of simulated
// time, so finish clears it: a substrate that lives on (the serving
// plane's, or one a caller keeps) must not keep a finished job's state
// and reports reachable.
type watchdog struct {
	s  *JobSet
	js *jobState
}

// finish marks the job done and disarms its pending deadlines, which
// would have returned without acting anyway: a done job never
// transfers again.
func (js *jobState) finish() {
	js.phase = phaseDone
	if js.wd != nil {
		*js.wd = watchdog{}
	}
}

// finishTransfers closes a stage's transfer phase (at the exact instant
// the last flow drained) and begins its compute phase.
func (s *JobSet) finishTransfers(js *jobState, now float64) {
	e := s.eng
	stage := js.run.Job.Stages[js.stage]
	s.releaseLoad(js)
	rep := StageReport{
		Name:       stage.Name,
		Kind:       stage.Kind,
		Placement:  js.curPlacement,
		TransferS:  now - js.transferStart,
		Pairs:      js.curPairs,
		LostBytes:  js.stLost,
		RecomputeS: js.stRecomputeS,
		Recoveries: js.stWaves,
	}
	rep.RecoveredBytes = js.stRecovered
	for _, pp := range js.pairs {
		rep.WANBytes += pp.bytes
		rep.DeliveredBytes += pp.delivered
	}
	js.res.LostBytes += js.stLost
	js.res.RecoveredBytes += js.stRecovered
	js.res.RecomputeS += js.stRecomputeS
	js.res.Recoveries += js.stWaves
	pairRates(rep.Pairs, js.pairs, js.transferStart)
	for _, ps := range rep.Pairs {
		if ps.Bytes >= 1<<20 && ps.Mbps > 0 && ps.Mbps < js.res.MinShuffleMbps {
			js.res.MinShuffleMbps = ps.Mbps
		}
	}
	s.recycle(js)

	// The stage's input is now distributed per the placement.
	total := 0.0
	for _, b := range js.layout {
		total += b
	}
	for j := range js.layout {
		js.layout[j] = total * js.curPlacement[j]
	}

	// Re-executed partitions (recovery with no surviving replica) are
	// recomputed work: it serializes with the stage's own compute.
	computeS := computeSeconds(stage, js.layout, s.computeRates) + js.stRecomputeS
	rep.ComputeS = computeS
	if computeS <= 0 {
		s.endStage(js, rep, now)
		return
	}
	js.phase = phaseCompute
	js.loadDeltas = e.computeLoadDeltas(js.loadDeltas, js.layout)
	s.holdLoad(js)
	s.wake(js, computeS, func(end float64) {
		if s.err != nil || js.phase != phaseCompute {
			return
		}
		s.releaseLoad(js)
		s.endStage(js, rep, end)
	})
}

// endStage records the stage and moves the job to its next one.
func (s *JobSet) endStage(js *jobState, rep StageReport, now float64) {
	js.res.Stages = append(js.res.Stages, rep)
	stage := js.run.Job.Stages[js.stage]
	for j := range js.layout {
		js.layout[j] *= stage.Selectivity
	}
	js.stage++
	s.startStage(js, now)
}

// finishJob completes a job's state machine.
func (s *JobSet) finishJob(js *jobState, now float64) {
	s.retire(js)
	js.res.JCTSeconds = now - js.startedAt
	if math.IsInf(js.res.MinShuffleMbps, 1) {
		js.res.MinShuffleMbps = 0
	}
	for _, b := range js.layout {
		js.res.OutputBytes += b
	}
	js.res.Cost = s.eng.price(js.run.Job, js.res)
	js.res.Energy = s.eng.energy(js.res)
	s.running--
	if s.onDone != nil {
		s.onDone(js.idx, js.res)
	}
}

// holdLoad shifts the job's current loadDeltas into the shared ledger
// and marks them held; releaseLoad undoes exactly one hold and is a
// no-op otherwise. The flag is what makes abort safe in transition
// windows: a compute phase's timer releases its load before endStage
// runs, but the job's phase field still says phaseCompute while the
// next startStage executes — an abort raised there (scheduler error)
// used to release the same load a second time, driving the co-tenant's
// composed CPU load in the ledger below its true value.
func (s *JobSet) holdLoad(js *jobState) {
	s.eng.ledger().shift(1, js.loadDeltas)
	js.loadHeld = true
}

func (s *JobSet) releaseLoad(js *jobState) {
	if !js.loadHeld {
		return
	}
	s.eng.ledger().shift(-1, js.loadDeltas)
	js.loadHeld = false
}

// abort fails the whole set: every outstanding flow of every job is
// stopped and every held load released, whatever phase each job is in,
// so an aborted set cannot leak flows or CPU load into a co-tenant's
// allocator state. Pending substrate timers (watchdogs, compute
// completions, recovery waves) cannot be cancelled, but every one of
// them checks s.err before acting and so fires inert.
func (s *JobSet) abort(err error) {
	if s.err != nil {
		return
	}
	s.err = err
	for _, js := range s.states {
		for _, f := range js.flows {
			if !f.Done() {
				f.Stop()
			}
		}
		s.releaseLoad(js)
		js.finish()
	}
	s.running = 0
}

// RunJobSet is the convenience wrapper: build a JobSet over the engine
// and run it to completion.
func (e *Engine) RunJobSet(runs []JobRun) (JobSetResult, error) {
	s, err := NewJobSet(e, runs)
	if err != nil {
		return JobSetResult{}, err
	}
	return s.Run()
}
