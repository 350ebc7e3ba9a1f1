package spark

import "github.com/wanify/wanify/internal/substrate"

// loadLedger composes an engine's CPU-load contributions per VM on top
// of whatever load the rest of the deployment has placed there.
//
// substrate.Cluster.SetCPULoad is absolute, and the engine used to
// exploit that: after every compute phase it wrote 0 to every VM,
// clobbering load set by anything else sharing the cluster — a
// concurrent job in a JobSet, or a test standing in for a co-located
// service. The ledger makes engine loads additive instead: each phase
// *shifts* its contribution in and back out, and the value written to
// the substrate is always (observed external base) + (sum of this
// engine's live contributions), clamped to the substrate's [0, 1]
// domain. Phases of concurrent jobs run through one shared ledger (the
// JobSet path shares one Engine), so their contributions sum exactly
// even past the clamp; external absolute writes between engine phases
// are folded into the base the next time the ledger touches the VM.
type loadLedger struct {
	sim substrate.Cluster
	own []float64 // summed live engine contributions per VM
	ext []float64 // external base load observed under our writes
	set []float64 // the absolute value this ledger last wrote
}

func newLoadLedger(sim substrate.Cluster) *loadLedger {
	n := sim.NumVMs()
	return &loadLedger{
		sim: sim,
		own: make([]float64, n),
		ext: make([]float64, n),
		set: make([]float64, n),
	}
}

// shift adds sign*deltas[vm] to every VM's engine contribution and
// rewrites the substrate loads. The read pass runs before any write so
// external load changes are observed once, not interleaved with our
// own writes.
func (l *loadLedger) shift(sign float64, deltas []float64) {
	for v := range l.own {
		cur := l.sim.CPULoad(substrate.VMID(v))
		if cur != l.set[v] { // someone moved the load since our last write
			l.ext[v] += cur - l.set[v]
			if l.ext[v] < 0 {
				l.ext[v] = 0
			}
		}
	}
	for v := range l.own {
		l.own[v] += sign * deltas[v]
		if l.own[v] < 0 { // guard float drift on release
			l.own[v] = 0
		}
		target := l.ext[v] + l.own[v]
		if target > 1 {
			target = 1
		}
		l.sim.SetCPULoad(substrate.VMID(v), target)
		l.set[v] = target
	}
}

// uniform fills dst with the same delta for every VM.
func (l *loadLedger) uniform(dst []float64, delta float64) []float64 {
	if len(dst) != len(l.own) {
		dst = make([]float64, len(l.own))
	}
	for i := range dst {
		dst[i] = delta
	}
	return dst
}
