package spark

import (
	"fmt"

	"github.com/wanify/wanify/internal/substrate"
)

// RecoveryConfig controls how the engine reacts to substrate faults
// (substrate.Cluster's KillVM / ResetPair). Disabled by default: a
// fault then fails the run with a descriptive error instead of leaving
// it to the transfer watchdog. When enabled, JobSet state machines
// re-enter the transfer phase instead of aborting: failed flows are
// detected through the flow-failure callback, batched for
// recoveryDetectS seconds, and their lost bytes re-sent in a recovery wave — from the
// original source when it survives, from its ring replica ((dc+1) mod
// n, replication factor 2 for stage outputs) when the source DC died,
// or re-executed from durable input across the survivors when neither
// holds a copy (charged as extra compute time for stages past the
// first). Everything runs through substrate timers, so recovery is as
// deterministic as the fault schedule that triggered it.
type RecoveryConfig struct {
	// Enabled turns fault recovery on. Off by default; fault-free runs
	// are byte-identical either way.
	Enabled bool
}

const (
	// recoveryDetectS batches flow failures before launching a recovery
	// wave, modeling the failure-detection latency of a driver
	// heartbeat.
	recoveryDetectS = 1.0
	// recoveryMaxWaves caps recovery waves per stage; a stage still
	// losing flows after that many waves aborts the set.
	recoveryMaxWaves = 8
)

// flowRec ties a launched flow to its job, stage and pair bookkeeping
// so its completion can be counted and a failure re-routed: the pair
// identifies src/dst DCs, bytes the payload share this flow carried.
// Records are recycled (JobSet.takeRec, JobSet.recycle): done and fail
// are the flow's callbacks, built once when the record is allocated,
// and a free record has a nil js.
type flowRec struct {
	js    *jobState
	stage int
	f     substrate.Flow
	pp    *pendingPair
	bytes float64

	done, fail func()
}

// aliveDCs reports, per DC, whether at least one of its VMs is alive.
func aliveDCs(sim substrate.Cluster) []bool {
	out := make([]bool, sim.NumDCs())
	for dc := range out {
		for _, vm := range sim.VMsOfDC(dc) {
			if sim.VMAlive(vm) {
				out[dc] = true
				break
			}
		}
	}
	return out
}

func countAlive(alive []bool) int {
	n := 0
	for _, a := range alive {
		if a {
			n++
		}
	}
	return n
}

// aliveVMs returns the DC's living VMs — while all of them live, the
// cluster's own list, not a copy (callers only read it). When every VM
// is dead it returns the full list so callers keep a well-defined
// (failing) path instead of dividing by zero — flows against dead VMs
// are born failed and surface through the failure machinery.
func aliveVMs(sim substrate.Cluster, dc int) []substrate.VMID {
	all := sim.VMsOfDC(dc)
	for k, vm := range all {
		if sim.VMAlive(vm) {
			continue
		}
		alive := append([]substrate.VMID(nil), all[:k]...)
		for _, vm := range all[k+1:] {
			if sim.VMAlive(vm) {
				alive = append(alive, vm)
			}
		}
		if len(alive) == 0 {
			return all
		}
		return alive
	}
	return all
}

// maskPlacement zeroes dead DCs' fractions and renormalizes; if the
// placement put everything on dead DCs it falls back to uniform over
// the survivors. Callers guarantee at least one DC is alive. Over the
// job's durable input it gives the weights re-executed bytes spread by.
func maskPlacement(p Placement, alive []bool) Placement {
	out := make(Placement, len(p))
	sum := 0.0
	for j := range p {
		if alive[j] {
			out[j] = p[j]
			sum += p[j]
		}
	}
	if sum <= 0 {
		uniform := 1.0 / float64(countAlive(alive))
		for j := range out {
			if alive[j] {
				out[j] = uniform
			}
		}
		return out
	}
	for j := range out {
		out[j] /= sum
	}
	return out
}

// armRecs registers the flow-failure handlers of just-launched
// records. Called after the stage's counters are set up: a flow born
// failed (started against a VM that died before launch) fires its
// handler synchronously from inside this call.
func armRecs(recs []*flowRec) {
	for _, rec := range recs {
		rec.f.OnFail(rec.fail)
	}
}

// flowFailed is the flow-failure callback: it settles the flow's
// accounting, and either aborts the set (recovery disabled) or queues
// the loss for the next recovery wave. Failures are batched: the first
// one in a quiet stage schedules one wave recoveryDetectS seconds out, and
// later failures ride along.
func (s *JobSet) flowFailed(rec *flowRec) {
	js, stageIdx := rec.js, rec.stage
	if js.phase != phaseTransfer || js.stage != stageIdx || s.err != nil {
		return
	}
	e := s.eng
	moved := rec.f.TransferredBytes()
	rec.pp.delivered += moved
	rec.pp.failedTransferred += moved
	js.flowsLeft--
	stage := js.run.Job.Stages[js.stage]
	if !e.Recovery.Enabled {
		s.abort(fmt.Errorf("spark: job %q stage %q: flow #%d dc%d->dc%d failed by a fault (enable Engine.Recovery to survive faults)",
			js.run.Job.Name, stage.Name, rec.f.ID(), rec.pp.i, rec.pp.j))
		return
	}
	js.failedRecs = append(js.failedRecs, rec)
	if js.recovering {
		return
	}
	js.recovering = true
	s.wake(js, recoveryDetectS, func(now float64) {
		if s.err != nil || js.phase != phaseTransfer || js.stage != stageIdx {
			return
		}
		s.recoverStage(js, now)
	})
}

// recoverStage launches one recovery wave: every batched loss is
// re-routed onto the surviving topology and re-sent. Bytes headed to a
// dead DC are re-spread per the (re-masked) placement; bytes whose
// source DC died come from the ring replica, or are re-executed from
// durable input when the replica died too. The wave's flows carry the
// same failure handlers, so cascading faults trigger further waves up
// to the recoveryMaxWaves cap.
func (s *JobSet) recoverStage(js *jobState, now float64) {
	e := s.eng
	n := e.sim.NumDCs()
	js.recovering = false
	js.attempts++
	stage := js.run.Job.Stages[js.stage]
	if js.attempts > recoveryMaxWaves {
		s.abort(fmt.Errorf("spark: job %q stage %q: still losing flows after %d recovery waves",
			js.run.Job.Name, stage.Name, recoveryMaxWaves))
		return
	}
	failed := js.failedRecs
	js.failedRecs = nil
	alive := aliveDCs(e.sim)
	if countAlive(alive) == 0 {
		s.abort(fmt.Errorf("spark: job %q: no data center left alive", js.run.Job.Name))
		return
	}

	// A dead destination keeps nothing: re-mask the stage placement onto
	// survivors so the re-routed bytes and the stage's output layout
	// agree about where the data ends up.
	for _, rec := range failed {
		if !alive[rec.pp.j] {
			js.curPlacement = maskPlacement(js.curPlacement, alive)
			break
		}
	}

	makeup := make([]float64, n*n) // source-major
	reexec := 0.0
	routeFrom := func(srcDC, dst int, b float64) {
		switch {
		case alive[srcDC]:
			makeup[srcDC*n+dst] += b
		case alive[(srcDC+1)%n]:
			// The ring replica holds a copy of the dead DC's outputs.
			makeup[(srcDC+1)%n*n+dst] += b
		default:
			// No replica survived: re-execute from durable input.
			for k, wk := range maskPlacement(js.run.Job.InputBytes, alive) {
				if wk > 0 {
					makeup[k*n+dst] += b * wk
				}
			}
			reexec += b
		}
	}
	route := func(srcDC, dstDC int, b float64) {
		if alive[dstDC] {
			routeFrom(srcDC, dstDC, b)
			return
		}
		for k := 0; k < n; k++ {
			if f := js.curPlacement[k]; f > 0 {
				routeFrom(srcDC, k, b*f)
			}
		}
	}

	for _, rec := range failed {
		pp := rec.pp
		var lost float64
		if alive[pp.j] {
			lost = rec.bytes - rec.f.TransferredBytes()
		} else {
			// Everything this flow carried is void — and, once per pair,
			// so is whatever its sibling flows already delivered there.
			lost = rec.bytes
			if !pp.reclaimed {
				pp.reclaimed = true
				lost += pp.delivered - pp.failedTransferred
			}
		}
		if lost < 1 {
			continue
		}
		js.stLost += lost
		js.stRecovered += lost
		route(pp.i, pp.j, lost)
	}
	s.chargeRecompute(js, alive, reexec)
	js.stWaves++

	var wave []PairStat
	for k, b := range makeup {
		if i, j := k/n, k%n; b != 0 && i != j {
			wave = append(wave, PairStat{I: int32(i), J: int32(j), Bytes: b})
		}
	}
	first := len(js.recs)
	js.res.WANBytes += s.launchTransfers(js, wave, false)
	if launched := js.recs[first:]; len(launched) > 0 {
		js.flowsLeft += len(launched)
		s.watch(js, "recovery wave")
		armRecs(launched)
	}
	if js.flowsLeft == 0 && !js.recovering && len(js.failedRecs) == 0 {
		s.finishTransfers(js, now)
	}
}

// repairLayout moves stage-input bytes resident at dead DCs onto
// survivors before placement: the ring replica takes over when it
// survives, otherwise the bytes are re-executed from durable input
// across the survivors (charged to the stage's recompute time for
// stages past the first). Runs at every stage boundary when recovery
// is enabled, so DC deaths during a compute phase surface at the next
// stage instead of silently keeping work on a dead DC.
func (s *JobSet) repairLayout(js *jobState, alive []bool) {
	n := len(js.layout)
	reexec := 0.0
	for dc := 0; dc < n; dc++ {
		if alive[dc] || js.layout[dc] <= 0 {
			continue
		}
		b := js.layout[dc]
		js.layout[dc] = 0
		js.stLost += b
		js.stRecovered += b
		if r := (dc + 1) % n; alive[r] {
			js.layout[r] += b
			continue
		}
		reexec += b
	}
	if reexec > 0 {
		for k, wk := range maskPlacement(js.run.Job.InputBytes, alive) {
			if wk > 0 {
				js.layout[k] += reexec * wk
			}
		}
		s.chargeRecompute(js, alive, reexec)
	}
}

// chargeRecompute charges re-executed bytes to the stage's recompute
// time, at the survivors' summed compute rate over the previous stage's
// work; the first stage re-reads durable input and pays nothing.
func (s *JobSet) chargeRecompute(js *jobState, alive []bool, reexec float64) {
	if reexec <= 0 || js.stage == 0 {
		return
	}
	rate := 0.0
	for k := range alive {
		if alive[k] {
			rate += s.computeRates[k]
		}
	}
	if rate > 0 {
		js.stRecomputeS += reexec / 1e9 * js.run.Job.Stages[js.stage-1].SecPerGB / rate
	}
}
