package netsim

import (
	"math"

	"github.com/wanify/wanify/internal/substrate"
)

// Flow implements substrate.Flow on the simulator.
var _ substrate.Flow = (*Flow)(nil)

// Flow is an active WAN transfer between two VMs. A flow aggregates all
// parallel connections a sender maintains toward one receiver; the
// Conns count is the paper's per-pair connection number (§2.3).
//
// A flow with unbounded size (see StartProbe) runs until stopped and is
// used by measurement tools; a sized flow completes when its bytes have
// been delivered.
type Flow struct {
	id  FlowID
	src VMID
	dst VMID

	remainingBits float64 // +Inf for probes
	sentBits      float64 // cumulative
	rate          float64 // current allocation, Mbps
	capMbps       float64 // own cap the last fill (or rampStep) used

	startedAt float64 // sim time the flow was created
	rampS     float64 // slow-start ramp duration (0 = instant)

	onDone func()
	onFail func()

	sim *Sim

	// next links a live flow into its VMs' flow rings (vm.last):
	// next[egress] in src's, next[ingress] in dst's.
	next [2]*Flow

	// The narrow fields share the last word, which keeps a Flow in the
	// 128-byte size class (DESIGN.md §2: each crossing of it costs the
	// workloads that start thousands of flows).
	srcDC    int32 // DC of src, cached for the allocator and pair indexes
	dstDC    int32 // DC of dst
	conns    int32
	done     bool
	stopped  bool
	failed   bool // terminated by a fault (endpoint death, pair reset)
	capSlack bool // the last fill ended with own cap to spare (capAvail > capMin)
}

// ID returns the flow's identifier.
func (f *Flow) ID() FlowID { return f.id }

// Src returns the sending VM.
func (f *Flow) Src() VMID { return f.src }

// Dst returns the receiving VM.
func (f *Flow) Dst() VMID { return f.dst }

// Conns returns the current number of parallel connections.
func (f *Flow) Conns() int { return int(f.conns) }

// SetConns changes the number of parallel connections. The Connections
// Manager of a WANify local agent calls this when the AIMD optimizer
// adds or removes connections. n is clamped to at least 1.
func (f *Flow) SetConns(n int) {
	if n < 1 {
		n = 1
	}
	if n == int(f.conns) {
		return
	}
	if !f.done {
		delta := n - int(f.conns)
		f.sim.vmConns[f.src] += delta
		f.sim.vmConns[f.dst] += delta
		// Connection counts are group structure: VM congestion and the
		// flow's weight.
		f.sim.restructureVM(f.src)
	}
	f.conns = int32(n)
}

// Rate returns the currently allocated rate in Mbps.
func (f *Flow) Rate() float64 {
	f.sim.ensureAllocated()
	return f.rate
}

// TransferredBytes returns the cumulative bytes delivered so far.
// Progress is always current: timers fire exactly at Sim.now and
// advanceTo credits flows before time moves, so there is never pending
// progress to flush.
func (f *Flow) TransferredBytes() float64 {
	return f.sentBits / 8
}

// RemainingBytes returns the bytes still to deliver (+Inf for probes).
func (f *Flow) RemainingBytes() float64 {
	return f.remainingBits / 8
}

// Done reports whether the flow has completed or been stopped.
func (f *Flow) Done() bool { return f.done }

// Probe reports whether this is an unbounded measurement flow.
func (f *Flow) Probe() bool { return math.IsInf(f.remainingBits, 1) }

// Stop terminates the flow immediately (probe tear-down or cancelled
// transfer). Remaining bytes are not delivered.
func (f *Flow) Stop() {
	if f.done {
		return
	}
	f.stopped = true
	f.sim.finishFlow(f)
}

// Failed reports whether the flow was terminated by a fault.
func (f *Flow) Failed() bool { return f.failed }

// OnFail registers fn to run when the flow fails. A flow that is
// already failed (started against a dead endpoint) fires fn
// immediately. At most one handler is held, and a finished flow holds
// none: it can never fail again.
func (f *Flow) OnFail(fn func()) {
	if !f.done {
		f.onFail = fn
		return
	}
	if f.failed && fn != nil {
		fn()
	}
}

// The two directions of a VM's traffic, which index its flow rings
// (vm.last, Flow.next).
const (
	egress  = 0
	ingress = 1
)

// vm is the internal VM state.
type vm struct {
	id   VMID
	spec VMSpec

	cpuLoad     float64 // [0,1], set by the compute engine
	lastRetrans float64 // retrans rate per second, from last allocation

	// last holds the newest live flow of each of the VM's two flow
	// rings, egress (src is this VM) and ingress (dst is); its
	// next[dir] is the oldest, so a ring walks in start (id) order.
	// addFlow links, finishFlow unlinks.
	last [2]*Flow

	dc   int32
	dead bool // killed by a KillVM fault; permanent
}

// link appends f, the newest live flow, to the VM's ring dir.
func (v *vm) link(dir int, f *Flow) {
	if last := v.last[dir]; last == nil {
		f.next[dir] = f
	} else {
		f.next[dir] = last.next[dir]
		last.next[dir] = f
	}
	v.last[dir] = f
}

// unlink removes f from the VM's ring dir, keeping the others in order.
// It walks from the oldest flow, where a finish usually is.
func (v *vm) unlink(dir int, f *Flow) {
	last := v.last[dir]
	prev := last
	for prev.next[dir] != f {
		prev = prev.next[dir]
	}
	switch {
	case prev == f: // the only member
		v.last[dir] = nil
	case last == f:
		prev.next[dir] = f.next[dir]
		v.last[dir] = prev
	default:
		prev.next[dir] = f.next[dir]
	}
	f.next[dir] = nil
}
