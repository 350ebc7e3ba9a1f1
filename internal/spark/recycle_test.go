package spark

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/substrate"
)

// closureID is a func value's identity: the address of the closure
// object it points at. Every record builds its own two callbacks, so
// the identity names the record a callback acts for.
func closureID(fn func()) uintptr {
	if fn == nil {
		return 0
	}
	return *(*uintptr)(unsafe.Pointer(&fn))
}

// trackedCluster records every flow started through it together with
// the callbacks it was handed, so a test can ask which records the
// flows still in flight can call.
type trackedCluster struct {
	substrate.Cluster
	flows []*trackedFlow
}

type trackedFlow struct {
	substrate.Flow
	done, fail uintptr // closureID of the completion and failure callbacks
}

func (c *trackedCluster) StartFlow(src, dst substrate.VMID, conns int, bytes float64, onDone func()) substrate.Flow {
	f := &trackedFlow{Flow: c.Cluster.StartFlow(src, dst, conns, bytes, onDone), done: closureID(onDone)}
	c.flows = append(c.flows, f)
	return f
}

func (f *trackedFlow) OnFail(fn func()) {
	f.fail = closureID(fn)
	f.Flow.OnFail(fn)
}

// recycleRun is an open job set over a frozen 4-DC cluster with two VMs
// per DC. A warm run's set has run two jobs first, so its free lists
// are full; a fresh run's set is new, over a simulator with the same
// history.
type recycleRun struct {
	c   *trackedCluster
	set *JobSet
}

func newRecycleRun(t *testing.T, warm, recovery bool) *recycleRun {
	t.Helper()
	cfg := netsim.UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, 31)
	cfg.Frozen = true
	for dc := range cfg.VMs {
		cfg.VMs[dc] = append(cfg.VMs[dc], substrate.T2Medium)
	}
	c := &trackedCluster{Cluster: netsim.NewSim(cfg)}
	eng := NewEngine(c, cost.DefaultRates())
	eng.Recovery.Enabled = recovery
	r := &recycleRun{c: c, set: NewOpenJobSet(eng)}
	r.admit(t, testJob("warm-a", 4, 8e9))
	r.admit(t, testJob("warm-b", 4, 6e9))
	r.drain(t)
	if len(r.set.freeRecs) == 0 || len(r.set.freePairs) == 0 {
		t.Fatal("the warm-up left nothing to recycle")
	}
	if !warm {
		r.set = NewOpenJobSet(eng)
	}
	c.Every(0.5, func(float64) { r.check(t) })
	return r
}

func (r *recycleRun) admit(t *testing.T, job Job) int {
	t.Helper()
	idx, err := r.set.Admit(JobRun{Job: job, Sched: localitySched{}, Policy: SingleConn{}})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// drain drives the clock until every admitted job has finished or the
// set has failed.
func (r *recycleRun) drain(t *testing.T) {
	t.Helper()
	for i := 0; r.set.Running() > 0 && r.set.Err() == nil; i++ {
		if i == 100000 {
			t.Fatal("the set never drained")
		}
		r.c.RunFor(1)
	}
}

// check asserts the recycling invariants: a free record belongs to no
// stage (nil js, nothing but its callbacks), a free pair is zero, and
// no flow still in flight holds a free record's callbacks.
func (r *recycleRun) check(t *testing.T) {
	t.Helper()
	free := map[uintptr]bool{}
	for _, rec := range r.set.freeRecs {
		if rec.js != nil || rec.f != nil || rec.pp != nil || rec.stage != 0 || rec.bytes != 0 || rec.done == nil || rec.fail == nil {
			t.Fatalf("a record on the free list is not reset: %+v", *rec)
		}
		free[closureID(rec.done)], free[closureID(rec.fail)] = true, true
	}
	for _, pp := range r.set.freePairs {
		if *pp != (pendingPair{}) {
			t.Fatalf("a pair on the free list is not zero: %+v", *pp)
		}
	}
	for _, f := range r.c.flows {
		if !f.Done() && (free[f.done] || free[f.fail]) {
			t.Fatalf("flow #%d is in flight and can call a recycled record", f.ID())
		}
	}
}

// TestRecycledRecordsAreSafe runs three scenarios that end a stage's
// records off the normal path — a cancel in mid-transfer, a killed VM
// whose recovery wave's records the next stage reuses, an abort — on a
// warm set and on a fresh one. The recycling invariants hold every half
// simulated second and at the end, and both sets produce the same
// results and error.
func TestRecycledRecordsAreSafe(t *testing.T) {
	scenarios := []struct {
		name     string
		recovery bool
		run      func(t *testing.T, r *recycleRun) []int
	}{
		{"cancel mid-transfer", false, func(t *testing.T, r *recycleRun) []int {
			x := r.admit(t, faultJob(4, 30e9))
			y := r.admit(t, testJob("co-tenant", 4, 6e9))
			r.c.RunFor(5)
			if r.set.states[x].phase != phaseTransfer {
				t.Fatal("the job to cancel is not transferring")
			}
			if err := r.set.Cancel(x); err != nil {
				t.Fatal(err)
			}
			r.check(t)
			// The newcomer takes the canceled job's records while the
			// co-tenant's flows are in flight.
			z := r.admit(t, faultJob(4, 12e9))
			r.drain(t)
			return []int{x, y, z}
		}},
		{"killed VM, recovery wave into the next stage", true, func(t *testing.T, r *recycleRun) []int {
			x := r.admit(t, faultJob(4, 30e9))
			y := r.admit(t, testJob("co-tenant", 4, 6e9))
			r.c.KillVM(r.c.VMsOfDC(2)[1], r.c.Now()+5)
			r.drain(t)
			res, ok := r.set.Result(x)
			if !ok || res.Stages[0].Recoveries == 0 || res.Stages[1].WANBytes == 0 {
				t.Fatalf("want a recovery wave in the first stage and transfers in the second: %+v", res)
			}
			return []int{x, y}
		}},
		{"abort", false, func(t *testing.T, r *recycleRun) []int {
			x := r.admit(t, faultJob(4, 30e9))
			y := r.admit(t, testJob("co-tenant", 4, 6e9))
			r.c.KillVM(r.c.VMsOfDC(2)[1], r.c.Now()+5)
			r.drain(t)
			if r.set.Err() == nil {
				t.Fatal("a fault without recovery did not abort the set")
			}
			return []int{x, y}
		}},
	}
	type outcome struct {
		results []RunResult
		done    []bool
		err     string
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var got [2]outcome
			for k, warm := range []bool{true, false} {
				r := newRecycleRun(t, warm, sc.recovery)
				for _, idx := range sc.run(t, r) {
					res, ok := r.set.Result(idx)
					got[k].results = append(got[k].results, res)
					got[k].done = append(got[k].done, ok)
				}
				r.check(t)
				got[k].err = fmt.Sprint(r.set.Err())
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("warm set and fresh set disagree:\nwarm  %+v\nfresh %+v", got[0], got[1])
			}
		})
	}
}

// TestLateCallbackOnRecycledRecordPanics: a free record's callbacks
// panic on its nil js. A callback that outlived its flow (netsim drops
// them, so none does) could never act for the job that reuses it.
func TestLateCallbackOnRecycledRecordPanics(t *testing.T) {
	r := newRecycleRun(t, true, true)
	rec := r.set.freeRecs[0]
	for name, fn := range map[string]func(){"done": rec.done, "fail": rec.fail} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a recycled record did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// countingConn opens one connection per flow and counts the flows.
type countingConn struct{ flows *int }

func (countingConn) Conns(substrate.VMID, int) int { return 1 }
func (c countingConn) Register(substrate.Flow)     { *c.flows++ }

// TestOpenJobSetSteadyStateAllocs admits and runs one more job on a
// warm open set over a frozen 4-DC cluster: a narrow job (two DCs, 4
// flows) and a wide one (four DCs, 24 flows). Each flow costs exactly
// one allocation, the *netsim.Flow (TestStartFlowSteadyStateAllocs);
// what the job set allocates does not grow with the flow count, and
// the free lists stop growing once they cover the widest stage.
func TestOpenJobSetSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (see raceEnabled)")
	}
	sim := frozenSim(4, 41)
	eng := NewEngine(sim, cost.DefaultRates())
	eng.MaxStageTransferS = 600
	set := NewOpenJobSet(eng)
	flows := 0
	run := func(job Job) func() {
		return func() {
			if _, err := set.Admit(JobRun{Job: job, Sched: localitySched{}, Policy: countingConn{&flows}}); err != nil {
				t.Fatal(err)
			}
			for set.Running() > 0 {
				sim.RunFor(10)
			}
			sim.RunFor(eng.MaxStageTransferS) // past the stage deadlines
		}
	}
	narrow := faultJob(4, 4e9)
	narrow.InputBytes = []float64{2e9, 2e9, 0, 0}
	wide := faultJob(4, 4e9)
	run(wide)()
	run(narrow)()
	if err := set.Err(); err != nil {
		t.Fatal(err)
	}
	recs := len(set.freeRecs)
	const runs = 20
	measure := func(job Job) (allocs float64, perJob int) {
		flows = 0
		allocs = testing.AllocsPerRun(runs, run(job))
		return allocs, flows / (runs + 1)
	}
	aN, fN := measure(narrow)
	aW, fW := measure(wide)
	if fN != 4 || fW != 24 {
		t.Fatalf("flows per job: narrow %d, wide %d; want 4 and 24", fN, fW)
	}
	t.Logf("allocations per job: narrow %v (%d flows), wide %v (%d flows)", aN, fN, aW, fW)
	if aW-float64(fW) != aN-float64(fN) {
		t.Errorf("allocations beyond one per flow: narrow %v (%v - %d flows), wide %v (%v - %d flows)",
			aN-float64(fN), aN, fN, aW-float64(fW), aW, fW)
	}
	if len(set.freeRecs) != recs {
		t.Errorf("free records grew from %d to %d in steady state", recs, len(set.freeRecs))
	}
}

// BenchmarkOpenJobSetChurn admits one two-shuffle job to a warm open
// set over a frozen 4-DC cluster and runs it to completion: the serving
// plane's per-job path, where every flow's records come off the set's
// free lists.
func BenchmarkOpenJobSetChurn(b *testing.B) {
	sim := frozenSim(4, 41)
	eng := NewEngine(sim, cost.DefaultRates())
	eng.MaxStageTransferS = 600
	set := NewOpenJobSet(eng)
	job := faultJob(4, 4e9)
	run := func() {
		if _, err := set.Admit(JobRun{Job: job, Sched: localitySched{}, Policy: SingleConn{}}); err != nil {
			b.Fatal(err)
		}
		for set.Running() > 0 {
			sim.RunFor(10)
		}
		sim.RunFor(eng.MaxStageTransferS)
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
