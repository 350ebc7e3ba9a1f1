package netsim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// TestKillVMFailsActiveFlows: a VM death fails every flow touching it
// at the scheduled instant — onFail fires, onDone never does, and the
// survivors keep running.
func TestKillVMFailsActiveFlows(t *testing.T) {
	s := frozenSim(3, 1)
	var done, failed int
	victim := s.startFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 2, 500e9, func() { done++ })
	victim.OnFail(func() { failed++ })
	bystander := s.startFlow(s.FirstVMOfDC(2), s.FirstVMOfDC(1), 2, 500e9, nil)

	s.KillVM(s.FirstVMOfDC(0), s.Now()+10)
	s.RunFor(9)
	if victim.Done() || failed != 0 {
		t.Fatal("flow failed before the scheduled kill")
	}
	s.RunFor(2)
	if !victim.Done() || !victim.Failed() {
		t.Fatalf("victim done=%v failed=%v after kill", victim.Done(), victim.Failed())
	}
	if failed != 1 || done != 0 {
		t.Errorf("onFail=%d onDone=%d, want 1/0", failed, done)
	}
	if s.VMAlive(s.FirstVMOfDC(0)) {
		t.Error("killed VM still alive")
	}
	if bystander.Done() {
		t.Error("bystander flow was killed too")
	}
	if bystander.Rate() <= 0 {
		t.Error("bystander stalled by unrelated VM death")
	}
}

// TestKillVMFailsInIDOrder: a dying VM's victims come from its egress
// and ingress flow rings, merged by id, so with flows interleaved in
// both directions (and others' flows between them) onFail still fires
// in start order — the order a scan of the live set yields.
func TestKillVMFailsInIDOrder(t *testing.T) {
	s := frozenSim(4, 1)
	vm := func(dc int) VMID { return s.FirstVMOfDC(dc) }
	x := vm(0)
	var want, got []FlowID
	for k, e := range [][2]VMID{
		{x, vm(1)}, {vm(2), x}, {vm(1), vm(2)}, {vm(3), x}, {x, vm(2)},
		{x, vm(3)}, {vm(2), vm(3)}, {vm(1), x}, {vm(3), x}, {x, vm(1)},
	} {
		f := s.startProbe(e[0], e[1], k%3+1)
		f.OnFail(func() { got = append(got, f.id) })
		if e[0] == x || e[1] == x {
			want = append(want, f.id)
		}
	}
	s.KillVM(x, s.Now())
	if !slices.Equal(got, want) {
		t.Fatalf("onFail order %v, want %v", got, want)
	}
	if n := s.ActiveFlows(); n != 2 {
		t.Fatalf("%d flows left, want the 2 that avoid the dead VM", n)
	}
}

// TestDeadVMRejectsNewFlows: flows and probes against a dead endpoint
// are born failed; OnFail registered afterwards still fires, and like
// any finished flow they hold no callback.
func TestDeadVMRejectsNewFlows(t *testing.T) {
	s := frozenSim(3, 2)
	dead := s.FirstVMOfDC(1)
	s.KillVM(dead, 0) // immediate
	onDone := func() { t.Error("a flow born failed completed") }
	for _, f := range []*Flow{
		s.startFlow(s.FirstVMOfDC(0), dead, 1, 1e9, onDone),
		s.startFlow(dead, s.FirstVMOfDC(2), 1, 1e9, onDone),
		s.startProbe(s.FirstVMOfDC(0), dead, 1),
	} {
		if !f.Done() || !f.Failed() {
			t.Fatalf("flow #%d against dead VM: done=%v failed=%v", f.ID(), f.Done(), f.Failed())
		}
		fired := 0
		f.OnFail(func() { fired++ })
		if fired != 1 {
			t.Errorf("flow #%d: OnFail after failure fired %d times", f.ID(), fired)
		}
		if f.onDone != nil || f.onFail != nil {
			t.Errorf("flow #%d born failed still holds a callback", f.ID())
		}
	}
	if s.ActiveFlows() != 0 {
		t.Errorf("%d active flows leaked from dead-VM starts", s.ActiveFlows())
	}
}

// TestPartitionStallsAndHeals: a DC partition zeroes the pair's
// achievable rate without failing flows; when it lifts, the flow
// resumes and completes with exact byte accounting.
func TestPartitionStallsAndHeals(t *testing.T) {
	s := frozenSim(3, 3)
	f := s.startFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 4, 30e9, nil)
	s.RunFor(5)
	if f.Rate() <= 0 {
		t.Fatal("flow not running before partition")
	}
	s.PartitionDC(1, s.Now()+5, s.Now()+65)
	s.RunFor(20)
	if got := f.Rate(); got != 0 {
		t.Fatalf("rate %.1f Mbps during partition, want 0", got)
	}
	if got := s.PairRate(0, 1); got != 0 {
		t.Fatalf("PairRate %.1f during partition, want 0", got)
	}
	atPartition := f.TransferredBytes()
	s.RunFor(30) // still partitioned: no progress at all
	if got := f.TransferredBytes(); got != atPartition {
		t.Fatalf("flow progressed %.0f bytes through a partition", got-atPartition)
	}
	if f.Done() || f.Failed() {
		t.Fatal("partition failed the flow; it must only stall")
	}
	if err := s.AwaitFlows(3600, f); err != nil {
		t.Fatalf("flow never recovered after partition healed: %v", err)
	}
	if got := f.TransferredBytes(); math.Abs(got-30e9) > 1 {
		t.Errorf("transferred %.0f bytes, want 30e9", got)
	}
}

// TestResetPairFailsOnlyThatPair: a pair reset fails the pair's active
// flows and nothing else; flows started afterwards run normally.
func TestResetPairFailsOnlyThatPair(t *testing.T) {
	s := frozenSim(3, 4)
	onPair := s.startFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 2, 500e9, nil)
	other := s.startFlow(s.FirstVMOfDC(1), s.FirstVMOfDC(2), 2, 500e9, nil)
	s.ResetPair(0, 1, s.Now()+10)
	s.RunFor(11)
	if !onPair.Failed() {
		t.Error("pair flow survived the reset")
	}
	if other.Done() || other.Failed() {
		t.Error("reset leaked onto another pair")
	}
	relaunch := s.startFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 2, 1e9, nil)
	if err := s.AwaitFlows(3600, relaunch); err != nil {
		t.Fatalf("post-reset flow on the pair: %v", err)
	}
}

// TestFaultDeterminism: the same fault schedule against the same seed
// reproduces the exact same trajectory (byte-for-byte rates and
// callback ordering), and a run with an empty schedule is identical to
// one on a build with no faults armed at all.
func TestFaultDeterminism(t *testing.T) {
	run := func() (transferred []float64, order []int) {
		cfg := UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, 7)
		s := NewSim(cfg) // unfrozen: fault determinism must hold under weather too
		var flows []*Flow
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if i == j {
					continue
				}
				f := s.startFlow(s.FirstVMOfDC(i), s.FirstVMOfDC(j), 2, 5e9, nil)
				id := int(f.ID())
				f.OnFail(func() { order = append(order, id) })
				flows = append(flows, f)
			}
		}
		s.KillVM(s.FirstVMOfDC(2), 20)
		s.PartitionDC(1, 30, 60)
		s.ResetPair(0, 3, 40)
		s.RunFor(120)
		for _, f := range flows {
			transferred = append(transferred, f.TransferredBytes())
		}
		return transferred, order
	}
	t1, o1 := run()
	t2, o2 := run()
	if len(o1) == 0 {
		t.Fatal("schedule failed no flows; test exercises nothing")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("flow %d transferred %.0f vs %.0f across identical runs", i, t1[i], t2[i])
		}
	}
	if len(o1) != len(o2) {
		t.Fatalf("failure counts differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("failure order diverged at %d: %v vs %v", i, o1, o2)
		}
	}
}

// TestAwaitFlowsNamesPendingFlows: the timeout error identifies which
// flows were still pending and where they were headed.
func TestAwaitFlowsNamesPendingFlows(t *testing.T) {
	s := frozenSim(3, 5)
	s.PartitionDC(1, 0, 1e9) // permanent partition: the flow can never drain
	f := s.startFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 1, 1e9, nil)
	err := s.AwaitFlows(30, f)
	if err == nil {
		t.Fatal("AwaitFlows returned nil for an undrainable flow")
	}
	for _, want := range []string{"#0", "dc0->dc1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("timeout error %q does not name %q", err, want)
		}
	}
}
