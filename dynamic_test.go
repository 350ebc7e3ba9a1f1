package wanify_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/workloads"
)

// newDynamicDeployment opens a dynamic deployment of the given slots
// over a frozen testbed cluster, with the re-gauging controller
// attached when staleAfterS > 0 (a plan older than that is re-gauged,
// which is how the tests force a replan).
func newDynamicDeployment(tb testing.TB, vmsPerDC []int, share optimize.ShareMode, slots int, staleAfterS float64) (*wanify.Framework, *netsim.Sim) {
	tb.Helper()
	vms := make([][]substrate.VMSpec, len(vmsPerDC))
	for i, k := range vmsPerDC {
		for j := 0; j < k; j++ {
			vms[i] = append(vms[i], substrate.T2Medium)
		}
	}
	sim := netsim.NewSim(netsim.Config{Regions: geo.TestbedSubset(len(vmsPerDC)), VMs: vms, Seed: 5, Frozen: true})
	fw, err := wanify.New(wanify.Config{
		Cluster: sim, Rates: cost.DefaultRates(), Seed: 5,
		Runtime: rgauge.Config{Enabled: staleAfterS > 0, EpochS: 5, StaleAfterS: staleAfterS, CooldownS: 10},
	}, getModel(tb))
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, _, err := fw.EnableJobSet(wanify.JobSetOptions{Jobs: slots, Dynamic: true, Share: share}); err != nil {
		tb.Fatal(err)
	}
	return fw, sim
}

// sameBits reports whether two float rows are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// demand is what AddTo adds for the agent's unfinished transfers per
// destination DC (nothing before its first epoch).
func demand(a *agent.Agent, n int) []int {
	d := make([]int, n)
	a.AddTo(make([]float64, n), make([]float64, n), d)
	return d
}

// TestDynamicChurnWindowsMatchFreshPartition is the framework-level
// lock on admission and release: a seeded script of admits, releases,
// refused calls and forced replans, and after every event every agent's
// window — all five rows, bit for bit — is what a from-scratch
// PartitionPlan → ChunkPlan of the current belief gives its slot, the
// occupied slots' MaxConns sum to the global plan's per pair, and free
// slots have no agents. The deployment rewrites one set of buffers at
// every event; this is what says no event ever shows through another.
func TestDynamicChurnWindowsMatchFreshPartition(t *testing.T) {
	const slots = 4
	for _, tc := range []struct {
		name  string
		vms   []int
		share optimize.ShareMode
	}{
		{"testbed4-fair", []int{1, 1, 1, 1}, optimize.ShareFair},
		{"testbed4-priority", []int{1, 1, 1, 1}, optimize.SharePriority},
		{"3dc-x2vm-priority", []int{2, 2, 2}, optimize.SharePriority},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fw, sim := newDynamicDeployment(t, tc.vms, tc.share, slots, 20)
			defer fw.StopAgents()
			ctl := fw.Controller()
			n := sim.NumDCs()
			used, prio := make([]bool, slots), make([]float64, slots)
			globalPlan := fw.Plan()
			heldMax := globalPlan.MaxConns.Clone()

			verify := func(event string) {
				t.Helper()
				pred, plan := ctl.Belief()
				w := optimize.ShareWeights(tc.share, slots, prio, nil)
				occupied := 0
				for g := range w {
					if !used[g] {
						w[g] = 0
					} else {
						occupied++
					}
				}
				if got, total := fw.DynamicSlots(); got != occupied || total != slots {
					t.Fatalf("%s: DynamicSlots = (%d, %d), want (%d, %d)", event, got, total, occupied, slots)
				}
				parts := optimize.PartitionPlan(plan, w)
				sum := bwmatrix.NewConn(n)
				for g, group := range fw.JobAgents() {
					if !used[g] {
						if len(group) != 0 {
							t.Fatalf("%s: free slot %d has %d agents", event, g, len(group))
						}
						continue
					}
					if len(group) != sim.NumVMs() {
						t.Fatalf("%s: slot %d has %d agents for %d VMs", event, g, len(group), sim.NumVMs())
					}
					rows := agent.ChunkPlan(sim, pred, parts[g])
					for _, a := range group {
						got, want := a.Window(), rows[a.VM()]
						if !slices.Equal(got.MinConns, want.MinConns) || !slices.Equal(got.MaxConns, want.MaxConns) ||
							!sameBits(got.MinBW, want.MinBW) || !sameBits(got.MaxBW, want.MaxBW) || !sameBits(got.PredBW, want.PredBW) {
							t.Fatalf("%s: slot %d VM %d window\n got %+v\nwant %+v", event, g, a.VM(), got, want)
						}
						for j := 0; j < n; j++ {
							sum[a.DC()][j] += got.MaxConns[j]
						}
					}
				}
				for i := 0; i < n && occupied > 0; i++ {
					for j := 0; j < n; j++ {
						if i != j && sum[i][j] != plan.MaxConns[i][j] {
							t.Fatalf("%s: pair (%d,%d): occupied slots hold %d connections, global window %d", event, i, j, sum[i][j], plan.MaxConns[i][j])
						}
					}
				}
				// The partition scratch must never be the global plan.
				for i := range heldMax {
					if !slices.Equal(globalPlan.MaxConns[i], heldMax[i]) {
						t.Fatalf("%s: global plan row %d rewritten: %v, was %v", event, i, globalPlan.MaxConns[i], heldMax[i])
					}
				}
			}

			verify("enable")
			rng := simrand.Derive(77, "dynamic-churn-"+tc.name)
			replans := 0
			for ev := 0; ev < 70; ev++ {
				occupied := 0
				for _, u := range used {
					if u {
						occupied++
					}
				}
				switch {
				case ev%12 == 11:
					// Forced replan: age the plan past StaleAfterS.
					before := ctl.Replans()
					for step := 0; ctl.Replans() == before; step++ {
						if step > 20 {
							t.Fatalf("event %d: no replan after %d s", ev, 5*step)
						}
						sim.RunFor(5)
					}
					replans++
					globalPlan = ctl.CurrentPlan()
					heldMax = globalPlan.MaxConns.Clone()
					verify(fmt.Sprintf("event %d: replan", ev))
				case occupied == slots && rng.Bool(0.3):
					if _, _, err := fw.AdmitJob(1); err == nil {
						t.Fatalf("event %d: admitted into a full deployment", ev)
					}
					verify(fmt.Sprintf("event %d: refused admit", ev))
				case occupied < slots && (occupied == 0 || rng.Bool(0.55)):
					p := rng.Uniform(0.2, 6)
					if rng.Bool(0.15) {
						p = 0 // non-positive counts as 1
					}
					want := 0
					for used[want] {
						want++
					}
					slot, policy, err := fw.AdmitJob(p)
					if err != nil || slot != want || policy == nil {
						t.Fatalf("event %d: AdmitJob(%v) = slot %d, policy %v, err %v; want the lowest free slot %d", ev, p, slot, policy, err, want)
					}
					if p <= 0 {
						p = 1
					}
					used[slot], prio[slot] = true, p
					verify(fmt.Sprintf("event %d: admit %d", ev, slot))
				default:
					slot := rng.IntN(slots)
					if !used[slot] {
						if err := fw.ReleaseJob(slot); err == nil {
							t.Fatalf("event %d: released free slot %d", ev, slot)
						}
						verify(fmt.Sprintf("event %d: refused release %d", ev, slot))
						continue
					}
					if err := fw.ReleaseJob(slot); err != nil {
						t.Fatal(err)
					}
					used[slot], prio[slot] = false, 0
					verify(fmt.Sprintf("event %d: release %d", ev, slot))
				}
			}
			if replans == 0 {
				t.Fatal("script forced no replan")
			}
		})
	}
}

// mallocsOf counts the heap objects fn allocates, the way
// testing.AllocsPerRun does, for one call (admission and release
// cannot be repeated without the other in between).
func mallocsOf(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestChurnSteadyStateAllocs pins what a churn event may allocate once
// the deployment's buffers are warm, with and without a controller
// attached. A release with survivors: nothing — the partition, the rows
// and every survivor's window are rewritten in place, the slot keeps
// its stopped agents, and the controller's prediction is read without
// a copy. An admission: only the epoch timers its re-armed agents'
// Start arms, the same whether one job survives beside it or three.
func TestChurnSteadyStateAllocs(t *testing.T) {
	// Start's epoch timer per VM: Every's ticker, its bound fire method
	// and its stop method value (New binds the agent's epoch once).
	const timerObjs = 3
	for _, tc := range []struct {
		name        string
		staleAfterS float64
	}{
		{"no-controller", 0},
		{"controller", 1e9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fw, sim := newDynamicDeployment(t, []int{1, 1, 1, 1}, optimize.SharePriority, 4, tc.staleAfterS)
			defer fw.StopAgents()
			for g := 0; g < 4; g++ {
				if _, _, err := fw.AdmitJob(float64(1 + g)); err != nil {
					t.Fatal(err)
				}
			}
			release := func(slot int) uint64 {
				return mallocsOf(func() {
					if err := fw.ReleaseJob(slot); err != nil {
						t.Fatal(err)
					}
				})
			}
			admit := func() uint64 {
				return mallocsOf(func() {
					if _, _, err := fw.AdmitJob(2.5); err != nil {
						t.Fatal(err)
					}
				})
			}
			release(3) // warm: every buffer has seen this shape
			admit()
			// The one object of slack is the substrate's timer queue
			// growing or not: a stopped agent's timer leaves the queue
			// only when it comes due, and this clock never moves.
			budget := uint64(timerObjs*sim.NumVMs()) + 1
			var admitWith3 uint64
			for round := 0; round < 5; round++ {
				if got := release(round % 4); got != 0 {
					t.Fatalf("round %d: ReleaseJob with 3 survivors allocated %d objects, want 0", round, got)
				}
				if admitWith3 = admit(); admitWith3 > budget {
					t.Fatalf("round %d: AdmitJob allocated %d objects, budget %d for re-arming %d agents", round, admitWith3, budget, sim.NumVMs())
				}
			}
			release(0)
			release(1)
			if got := release(2); got != 0 {
				t.Errorf("ReleaseJob with 1 survivor allocated %d objects, want 0", got)
			}
			if admitWith1 := admit(); admitWith3 > admitWith1+1 {
				t.Errorf("AdmitJob allocated %d objects beside 3 survivors, %d beside 1: admission must not pay per survivor", admitWith3, admitWith1)
			}
		})
	}
}

// countedPolicy counts the calls a job makes through its policy.
type countedPolicy struct {
	spark.ConnPolicy
	calls *int
}

func (p countedPolicy) Conns(src substrate.VMID, dst int) int {
	*p.calls++
	return p.ConnPolicy.Conns(src, dst)
}

func (p countedPolicy) Register(f substrate.Flow) {
	*p.calls++
	p.ConnPolicy.Register(f)
}

// TestRearmedSlotIsAFreshAdmission holds a slot's kept agents to fresh
// ones: two jobs run, one is canceled mid-transfer and released, and a
// new admission lands in its slot. The slot's own agents come back with
// the window, connection targets and target bandwidths of agent.New +
// ApplyPlan over a from-scratch partition, no monitor reading and an
// empty pool — an idle epoch later they report nothing moved, where a
// kept pool would still account the canceled flows' last bytes. The
// canceled job's policy is never consulted again, while the newcomer
// runs to completion on the re-armed agents.
func TestRearmedSlotIsAFreshAdmission(t *testing.T) {
	const slots = 2
	fw, sim := newDynamicDeployment(t, []int{1, 1, 1, 1}, optimize.SharePriority, slots, 1e9)
	defer fw.StopAgents()
	set := spark.NewOpenJobSet(spark.NewEngine(sim, cost.DefaultRates()))
	job := func() spark.Job { return workloads.TeraSort(workloads.UniformInput(sim.NumDCs(), 40e9)) }
	prio := []float64{1, 3}
	var canceledCalls int
	idx := make([]int, slots)
	for g, p := range prio {
		slot, policy, err := fw.AdmitJob(p)
		if err != nil || slot != g {
			t.Fatalf("AdmitJob(%v) = slot %d, err %v; want slot %d", p, slot, err, g)
		}
		if g == 1 {
			policy = countedPolicy{policy, &canceledCalls}
		}
		if idx[g], err = set.Admit(spark.JobRun{Job: job(), Sched: gda.Locality{}, Policy: policy}); err != nil {
			t.Fatal(err)
		}
	}
	kept := slices.Clone(fw.JobAgents()[1])
	// Run until slot 1's agents have monitored traffic and still hold
	// live transfers, then cancel between two epochs.
	inFlight := func() bool {
		for _, a := range kept {
			if mon := a.MonitoredMbps(); mon != nil && slices.Max(mon) > 0 && slices.Max(demand(a, sim.NumDCs())) > 0 {
				return true
			}
		}
		return false
	}
	for step := 0; !inFlight(); step++ {
		if step > 200 {
			t.Fatal("slot 1 never had a transfer in flight at an epoch")
		}
		sim.RunFor(1)
	}
	sim.RunFor(2.5)
	if err := set.Cancel(idx[1]); err != nil {
		t.Fatal(err)
	}
	if err := fw.ReleaseJob(1); err != nil {
		t.Fatal(err)
	}
	callsAtRelease := canceledCalls
	if callsAtRelease == 0 {
		t.Fatal("the canceled job never consulted its policy")
	}

	prio[1] = 2
	slot, policy, err := fw.AdmitJob(prio[1])
	if err != nil || slot != 1 {
		t.Fatalf("AdmitJob = slot %d, err %v; want the freed slot 1", slot, err)
	}
	group := fw.JobAgents()[1]
	if !slices.Equal(group, kept) {
		t.Fatal("the re-admission built new agents instead of re-arming the slot's own")
	}
	ctl := fw.Controller()
	parts := optimize.PartitionPlan(ctl.CurrentPlan(), optimize.ShareWeights(optimize.SharePriority, slots, prio, nil))
	pred, _ := ctl.Belief()
	rows := agent.ChunkPlan(sim, pred, parts[1])
	for _, a := range group {
		fresh := agent.New(sim, a.VM(), agent.Config{})
		fresh.ApplyPlan(rows[a.VM()])
		got, want := a.Window(), fresh.Window()
		if !slices.Equal(got.MinConns, want.MinConns) || !slices.Equal(got.MaxConns, want.MaxConns) ||
			!sameBits(got.MinBW, want.MinBW) || !sameBits(got.MaxBW, want.MaxBW) || !sameBits(got.PredBW, want.PredBW) {
			t.Errorf("VM %d window\n got %+v\nwant %+v", a.VM(), got, want)
		}
		if !slices.Equal(a.Conns(), fresh.Conns()) || !sameBits(a.TargetBW(), fresh.TargetBW()) {
			t.Errorf("VM %d targets: conns %v bw %v, fresh conns %v bw %v", a.VM(), a.Conns(), a.TargetBW(), fresh.Conns(), fresh.TargetBW())
		}
		if mon := a.MonitoredMbps(); mon != nil {
			t.Errorf("VM %d kept the released job's monitor reading %v", a.VM(), mon)
		}
	}
	sim.RunFor(5)
	for _, a := range group {
		if mon := a.MonitoredMbps(); mon == nil || slices.Max(mon) != 0 {
			t.Errorf("VM %d: an idle epoch after re-arming monitored %v, want all zero", a.VM(), mon)
		}
		if d := demand(a, sim.NumDCs()); slices.Max(d) != 0 {
			t.Errorf("VM %d: transfers %v still in flight after re-arming, want none", a.VM(), d)
		}
	}

	newcomer, err := set.Admit(spark.JobRun{Job: job(), Sched: gda.Locality{}, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; set.Running() > 0; step++ {
		if step > 2000 || set.Err() != nil {
			t.Fatalf("job set did not finish: %d running, err %v", set.Running(), set.Err())
		}
		sim.RunFor(5)
	}
	if _, ok := set.Result(newcomer); !ok {
		t.Fatal("the job on the re-armed slot did not finish")
	}
	if canceledCalls != callsAtRelease {
		t.Errorf("the canceled job's policy was called %d times after its release", canceledCalls-callsAtRelease)
	}
}
