package wanify_test

import (
	"testing"

	"github.com/wanify/wanify/internal/optimize"
)

// BenchmarkChurnRebalance times the serving plane's churn event in
// isolation: a full 4-slot dynamic deployment on the 4-DC testbed, the
// controller attached, and per iteration one ReleaseJob (three
// survivors' windows widen) plus one AdmitJob (they narrow again, the
// freed slot's agents are re-armed). With -benchmem it shows what an
// event allocates: the re-armed agents' epoch timers, never an agent or
// the survivors' windows.
func BenchmarkChurnRebalance(b *testing.B) {
	const slots = 4
	fw, sim := newDynamicDeployment(b, []int{1, 1, 1, 1}, optimize.ShareFair, slots, 1e9)
	defer fw.StopAgents()
	for g := 0; g < slots; g++ {
		if _, _, err := fw.AdmitJob(1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fw.ReleaseJob(i % slots); err != nil {
			b.Fatal(err)
		}
		if _, _, err := fw.AdmitJob(1); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			// A stopped agent's epoch timer leaves the substrate's queue
			// only when its time comes: let an epoch pass now and then,
			// or the queue grows with b.N.
			sim.RunFor(5)
		}
	}
}
