package netsim

import (
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// benchChurnSim builds an 8-DC cluster saturated with nFlows probes
// spread round-robin across all ordered DC pairs — the shape of the
// paper's Fig. 5-10 shuffle phases.
func benchChurnSim(nFlows int) (*Sim, []*Flow) {
	cfg := UniformCluster(geo.TestbedSubset(8), substrate.T2Medium, 99)
	cfg.Frozen = true
	s := NewSim(cfg)
	var pairs [][2]int
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	flows := make([]*Flow, nFlows)
	for k := range flows {
		p := pairs[k%len(pairs)]
		flows[k] = s.startProbe(s.FirstVMOfDC(p[0]), s.FirstVMOfDC(p[1]), k%7+1)
	}
	s.ensureAllocated()
	return s, flows
}

// BenchmarkAllocatorChurn measures one allocator recomputation per
// start/finish churn event with 336 concurrent flows — the netsim hot
// path (Figs. 5-10 spawn hundreds of concurrent shuffle flows). The
// "fromscratch" variant runs the original allocator
// (allocateReference); "incremental" runs the production path. The
// ratio is the PR's headline speedup (target >= 5x).
func BenchmarkAllocatorChurn(b *testing.B) {
	const nFlows = 336
	bench := func(b *testing.B, incremental bool) {
		s, flows := benchChurnSim(nFlows)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			// Churn: the oldest flow finishes, a replacement starts.
			k := n % nFlows
			old := flows[k]
			src, dst := old.Src(), old.Dst()
			old.Stop()
			flows[k] = s.startProbe(src, dst, n%7+1)
			if incremental {
				s.ensureAllocated()
			} else {
				s.allocateReference()
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { bench(b, true) })
	b.Run("fromscratch", func(b *testing.B) { bench(b, false) })
}

// BenchmarkAllocatorSteadyState measures a bare recomputation with no
// churn (e.g. a fluctuation tick): the same flow set reallocated.
func BenchmarkAllocatorSteadyState(b *testing.B) {
	s, _ := benchChurnSim(224)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.invalidate()
		s.ensureAllocated()
	}
}

// BenchmarkAllocDenseSnapshot measures what measure.Snapshot costs the
// simulator on a fresh 24-DC fleet: 552 single-connection probes in
// one bottleneck group, run through a one-second window (1,656 ramp
// steps) and torn down.
func BenchmarkAllocDenseSnapshot(b *testing.B) {
	s := NewSim(FleetCluster(24, 1, substrate.T2Medium, 2025))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		probes := allToAllProbes(s, oneConn)
		s.RunFor(1)
		for _, f := range probes {
			f.Stop()
		}
	}
}

// BenchmarkAllocServeChurn measures the allocator under the serving
// plane's event mix: a 4-DC testbed with a dozen live flows, where per
// job a flow finishes, its successor starts and ramps through its
// three slow-start levels, and the engine shifts CPU load in and back
// out on every VM — so most allocations arrive with the flow set of
// the one before.
func BenchmarkAllocServeChurn(b *testing.B) {
	s := NewSim(UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, 99))
	flows := make([]*Flow, 12) // every ordered DC pair once
	for k := range flows {
		src := k / 3
		dst := (src + 1 + k%3) % 4
		flows[k] = s.startProbe(s.FirstVMOfDC(src), s.FirstVMOfDC(dst), k%4+1)
	}
	s.RunFor(2)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		k := n % len(flows)
		old := flows[k]
		old.Stop()
		flows[k] = s.startProbe(old.Src(), old.Dst(), n%4+1)
		for _, load := range [2]float64{0.6, 0} {
			for v := 0; v < s.NumVMs(); v++ {
				s.SetCPULoad(VMID(v), load)
			}
			s.RunFor(0.25) // the new flow's ramp ends inside the second
		}
	}
}

// BenchmarkRampStepFleet measures slack ramp steps at fleet scale, in
// the shape of sparse100: on a fluctuating 100-DC fleet of 4 VMs per
// DC, six regional 6-DC shuffles start (every VM sends one
// 4-connection flow to its peer VM in each other DC of its region, so
// a VM carries ten flows), ramp through their slow-start levels and
// stop. fast/op counts the ramp steps absorbed without a refill, each
// of which re-attributes retransmissions at two VMs.
func BenchmarkRampStepFleet(b *testing.B) {
	const dcs, vmsPerDC, jobs, jobDCs = 100, 4, 6, 6
	cfg := FleetCluster(dcs, vmsPerDC, substrate.T2Medium, 2025)
	cfg.Frozen = false
	s := NewSim(cfg)
	flows := make([]*Flow, 0, jobs*jobDCs*(jobDCs-1)*vmsPerDC)
	fast := s.rampFast
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
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
		s.RunFor(0.5) // past every flow's ramp
		for _, f := range flows {
			f.Stop()
		}
		flows = flows[:0]
	}
	b.ReportMetric(float64(s.rampFast-fast)/float64(b.N), "fast/op")
}

// BenchmarkTimerHeap measures a push/pop cycle on a 512-deep timer
// heap — the event loop's core data structure (eventHeap, also the ramp
// boundaries' heap), hand-rolled to avoid the per-event boxing of the
// old container/heap implementation.
func BenchmarkTimerHeap(b *testing.B) {
	var h eventHeap[func(now float64)]
	fn := func(float64) {}
	for i := 0; i < 512; i++ {
		h.push(event[func(now float64)]{at: float64(i % 97), seq: int64(i), x: fn})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		h.push(event[func(now float64)]{at: float64(n % 89), seq: int64(n + 512), x: fn})
		h.pop()
	}
}

// BenchmarkTimerLoop measures the full event loop driving 64 recurring
// timers through one simulated second per iteration.
func BenchmarkTimerLoop(b *testing.B) {
	s := frozenSim(2, 1)
	for i := 0; i < 64; i++ {
		s.Every(0.05+0.01*float64(i%10), func(float64) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.RunFor(1)
	}
}
