package netsim

import (
	"math"
	"slices"
	"testing"

	"github.com/wanify/wanify/internal/substrate"
)

// fleetBenchVMs is the per-DC VM count of the fixture topology,
// matching the fleet experiment driver's cluster shape.
const fleetBenchVMs = 4

// fleetBenchSim builds a fleet tier with steady regional traffic:
// consecutive DC pairs exchange flows whose endpoints chain the pair's
// VMs into two 4-VM cycles, so a 2k-DC tier decomposes into 2k
// bottleneck groups of 4 VMs / 4 flows each — the many-small-groups
// shape fleet workloads produce (regional shuffles, disjoint job
// footprints).
func fleetBenchSim(dcs int) (*Sim, int) {
	s := NewSim(FleetCluster(dcs, fleetBenchVMs, substrate.T2Medium, 7))
	nFlows := 0
	for b := 0; b+1 < dcs; b += 2 {
		for v := 0; v < fleetBenchVMs; v++ {
			w := (v + 1) % fleetBenchVMs
			s.startProbe(s.vmsOfDC[b][v], s.vmsOfDC[b+1][w], v%7+1)
			s.startProbe(s.vmsOfDC[b+1][v], s.vmsOfDC[b][w], (v+3)%7+1)
			nFlows += 2
		}
	}
	s.ensureAllocated()
	return s, nFlows
}

// TestFleetAllocStatsShape checks the fleet fixture's structure at the
// 10-DC tier: cluster shape, flow count and group decomposition.
func TestFleetAllocStatsShape(t *testing.T) {
	s, nFlows := fleetBenchSim(10)
	if len(s.vmsOfDC) != 10 || len(s.vms) != 10*fleetBenchVMs {
		t.Fatalf("tier shape %d DCs / %d VMs, want 10x%d", len(s.vmsOfDC), len(s.vms), fleetBenchVMs)
	}
	// 5 DC blocks x (fleetBenchVMs x 2 directions) flows.
	if want := 5 * fleetBenchVMs * 2; nFlows != want || len(s.flows) != want {
		t.Fatalf("flows = %d (live %d), want %d", nFlows, len(s.flows), want)
	}
	// The VM chaining splits each block into two 4-VM cycles.
	if groups, _ := s.AllocGroups(); groups != 10 {
		t.Fatalf("groups = %d, want 10", groups)
	}
}

// TestUnshardedFillMatchesReference locks the claim sharding rests
// on: running the reference filler over the
// whole flow set as a single group — the pre-sharding global round
// loop — answers the same allocation as the group-decomposed
// reference. Independent components never constrain each other's
// theta, so the global formulation only changes how a flow's rate is
// split across filling rounds; the comparison is to a relative 1e-9
// (the round boundaries differ, so the float accumulation order does
// too — this is the divergence that makes the per-group formulation
// the semantic definition and the global loop only a baseline).
func TestUnshardedFillMatchesReference(t *testing.T) {
	s, nFlows := fleetBenchSim(20)

	wantRates, wantRetrans := s.allocateReference()

	order := make([]*Flow, len(s.flows))
	copy(order, s.flows)
	slices.SortFunc(order, func(x, y *Flow) int { return int(x.id - y.id) })
	congFactor := make([]float64, len(s.vms))
	totalConns := make([]int, len(s.vms))
	for _, f := range order {
		totalConns[f.src] += int(f.conns)
		totalConns[f.dst] += int(f.conns)
	}
	for i := range s.vms {
		over := float64(totalConns[i] - s.cfg.CongestionKnee)
		if over < 0 {
			over = 0
		}
		congFactor[i] = 1 / (1 + float64(congestionSlope*over))
	}
	members := make([]int, nFlows)
	for i := range members {
		members[i] = i
	}
	gotRates := make([]float64, nFlows)
	gotRetrans := make([]float64, len(s.vms))
	s.refFillGroup(order, members, congFactor, gotRates, gotRetrans)

	close := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		m := math.Max(math.Abs(a), math.Abs(b))
		return d <= 1e-9*math.Max(1, m)
	}
	for i := range wantRates {
		if !close(gotRates[i], wantRates[i]) {
			t.Fatalf("flow %d: unsharded rate %v != reference %v", i, gotRates[i], wantRates[i])
		}
	}
	for v := range wantRetrans {
		if !close(gotRetrans[v], wantRetrans[v]) {
			t.Fatalf("vm %d: unsharded retrans %v != reference %v", v, gotRetrans[v], wantRetrans[v])
		}
	}
}

// churnFleetSim builds sparse100's standing flow set on a frozen
// 100-DC fleet of 4 VMs per DC: six regional 6-DC shuffles, every VM
// sending one 4-connection probe to its peer VM in each other DC of its
// region — 720 flows in 24 bottleneck groups of 6 VMs and 30 flows.
func churnFleetSim() (*Sim, []*Flow) {
	const dcs, vmsPerDC, jobs, jobDCs = 100, 4, 6, 6
	cfg := FleetCluster(dcs, vmsPerDC, substrate.T2Medium, 2025)
	cfg.Frozen = true
	s := NewSim(cfg)
	var flows []*Flow
	for j := 0; j < jobs; j++ {
		first := j * (dcs / jobs)
		for src := first; src < first+jobDCs; src++ {
			for dst := first; dst < first+jobDCs; dst++ {
				for v := 0; v < vmsPerDC && src != dst; v++ {
					flows = append(flows, s.startProbe(s.vmsOfDC[src][v], s.vmsOfDC[dst][v], 4))
				}
			}
		}
	}
	s.ensureAllocated()
	return s, flows
}

// churnFleetOp stops flows[k] and starts its replacement in the same
// region — from the same VM to its peer in the region's next other DC,
// so in the same group — and allocates.
func churnFleetOp(s *Sim, flows []*Flow, k int) {
	const vmsPerDC, regionDCs, jobDCs = 4, 100 / 6, 6
	old := flows[k]
	first := int(old.srcDC) / regionDCs * regionDCs
	dst := int(old.dstDC)
	for dst == int(old.dstDC) || dst == int(old.srcDC) {
		dst = first + (dst-first+1)%jobDCs
	}
	old.Stop()
	flows[k] = s.startProbe(old.src, s.vmsOfDC[dst][int(old.src)%vmsPerDC], 4)
	s.ensureAllocated()
}

// BenchmarkAllocatorChurnFleet measures what a flow's finish and its
// successor's start cost the allocator at fleet scale, in the shape of
// sparse100 (churnFleetSim): per op one flow stops, its replacement
// starts in the same region and the allocation runs. groups/op reports
// the refilled groups per allocation.
func BenchmarkAllocatorChurnFleet(b *testing.B) {
	s, flows := churnFleetSim()
	refilled := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		churnFleetOp(s, flows, n%len(flows))
		_, r := s.AllocGroups()
		refilled += r
	}
	b.ReportMetric(float64(refilled)/float64(b.N), "groups/op")
}

// TestWarmStructureEventsAllocateNothing: once the group records have
// grown to the standing set, a flow's finish, its successor's start and
// the allocation allocate nothing but the successor's *Flow, and a
// connection resize nothing at all.
func TestWarmStructureEventsAllocateNothing(t *testing.T) {
	s, flows := churnFleetSim()
	for k := range flows {
		churnFleetOp(s, flows, k)
	}
	const runs = 200
	// The clock stands still, so every start's three ramp boundaries
	// stay queued: room for them keeps the heap's growth out of the count.
	s.ramps = slices.Grow(s.ramps, 3*(runs+1))
	k := 0
	churn := func() {
		churnFleetOp(s, flows, k%len(flows))
		k++
	}
	if got := testing.AllocsPerRun(runs, churn); got != 1 {
		t.Errorf("a stop, a start and an allocation allocate %v objects, want 1 (the *Flow)", got)
	}
	resize := func() {
		f := flows[k%len(flows)]
		f.SetConns(int(f.conns)%6 + 1)
		s.ensureAllocated()
		k++
	}
	if got := testing.AllocsPerRun(runs, resize); got != 0 {
		t.Errorf("a resize and an allocation allocate %v objects, want 0", got)
	}
	if groups, _ := s.AllocGroups(); groups != 24 {
		t.Errorf("%d groups after the churn, want the standing set's 24", groups)
	}
}
