// Package substrate defines the contract between WANify's online
// module and the WAN it runs on.
//
// Everything above the network — measurement probes (internal/measure),
// local agents (internal/agent), the analytics engine (internal/spark),
// the GDA schedulers (internal/gda), the offline feature pipeline
// (internal/ml/dataset) and the wanify.Framework itself — is defined
// over *any* wide-area substrate: the paper runs it on an AWS VPC
// testbed, this reproduction on a fluid simulator, and future backends
// may replay measured traces or drive live agents. Cluster is the
// narrow interface those layers actually consume; internal/netsim and
// internal/tracesim are its current implementations.
//
// The interface is deliberately minimal (see DESIGN.md §1a): upper
// layers may query topology and host metrics, start/resize/stop flows
// and probes, install tc-style pair limits, and step the shared clock.
// They may NOT reach into link physics (fluctuation processes,
// congestion knees, per-flow rate envelopes) — WANify's whole premise
// is that runtime bandwidth must be *gauged*, not read off; a backend
// that exposed its physics would let upper layers cheat. Anything not
// in Cluster is a backend construction detail and belongs next to the
// code that builds the concrete backend.
//
// All bandwidth values are in Mbps, sizes in bytes and time in
// substrate-defined seconds. Implementations must be deterministic for
// a given configuration/seed: the experiment drivers and golden tests
// rely on byte-identical replays.
package substrate

import (
	"fmt"

	"github.com/wanify/wanify/internal/geo"
)

// VMID identifies a virtual machine within a Cluster.
type VMID int

// FlowID identifies a flow within a Cluster.
type FlowID int

// VMSpec describes the network-relevant shape of a virtual machine.
type VMSpec struct {
	// Type is a descriptive instance type name, e.g. "t2.medium".
	Type string
	// EgressMbps is the sustained WAN egress capacity.
	EgressMbps float64
	// IngressMbps is the sustained WAN ingress capacity.
	IngressMbps float64
	// MemGB is the instance memory; parallel connections consume
	// buffer space out of it (the paper's Md feature, Table 3).
	MemGB float64
	// ComputeRate is the relative task-processing rate (1.0 = one
	// t2.medium vCPU pair). Used by the analytics engine.
	ComputeRate float64
	// VCPUs is the vCPU count, used for burst-surcharge pricing (the
	// paper adds $0.05 per vCPU-hour for unlimited CPU bursts, §5.1).
	VCPUs int
	// HourlyUSD is the on-demand instance price, used by the cost model.
	HourlyUSD float64
	// Watts is the instance's attributable average power draw, used by
	// the energy/carbon model (a vCPU-share slice of the host, not a
	// whole server).
	Watts float64
}

// Predefined instance shapes used across the paper's experiments.
// Capacities are calibrated so the paper's anchor bandwidths reproduce
// (see DESIGN.md §2): WAN caps are roughly half of peak NIC rate, as
// the paper notes for m5.large ("10 Gbps NIC, WAN throttled to half").
var (
	// T2Medium hosts Spark workers in the paper's evaluation.
	T2Medium = VMSpec{Type: "t2.medium", EgressMbps: 2400, IngressMbps: 2800, MemGB: 4, ComputeRate: 1.0, VCPUs: 2, HourlyUSD: 0.0464, Watts: 11}
	// T2Large hosts the Spark master.
	T2Large = VMSpec{Type: "t2.large", EgressMbps: 3000, IngressMbps: 3400, MemGB: 8, ComputeRate: 1.2, VCPUs: 2, HourlyUSD: 0.0928, Watts: 17}
	// T3Nano (unlimited burst) runs the bandwidth-monitoring probes.
	T3Nano = VMSpec{Type: "t3.nano", EgressMbps: 1000, IngressMbps: 1100, MemGB: 0.5, ComputeRate: 0.25, VCPUs: 2, HourlyUSD: 0.0052, Watts: 2.2}
	// E2Medium is the GCP instance used in the multi-cloud check (§5.8.3).
	E2Medium = VMSpec{Type: "e2-medium", EgressMbps: 2200, IngressMbps: 2600, MemGB: 4, ComputeRate: 0.95, VCPUs: 2, HourlyUSD: 0.0335, Watts: 10}
)

// VMStats is a snapshot of a VM's host-level metrics, the sources of
// the paper's Table 3 features (Md, Ci, Nr).
type VMStats struct {
	// CPULoad is the current CPU utilization in [0, 1] (feature Ci).
	CPULoad float64
	// MemUtil is the current memory utilization in [0, 1], including
	// per-connection socket buffers (feature Md).
	MemUtil float64
	// RetransPerSec is the current TCP retransmission rate (feature Nr).
	RetransPerSec float64
	// ActiveConns is the total number of connections terminating at
	// this VM (both directions).
	ActiveConns int
}

// Flow is an active WAN transfer between two VMs. A flow aggregates
// all parallel connections a sender maintains toward one receiver; the
// Conns count is the paper's per-pair connection number (§2.3). A flow
// with unbounded size (see Cluster.StartProbe) runs until stopped and
// is used by measurement tools; a sized flow completes when its bytes
// have been delivered.
type Flow interface {
	// ID returns the flow's identifier, unique and ascending within a
	// Cluster: sorting by ID recovers start order.
	ID() FlowID
	// Src returns the sending VM.
	Src() VMID
	// Dst returns the receiving VM.
	Dst() VMID
	// Conns returns the current number of parallel connections.
	Conns() int
	// SetConns changes the number of parallel connections (clamped to
	// at least 1). The Connections Manager of a WANify local agent
	// calls this when the AIMD optimizer adds or removes connections.
	SetConns(n int)
	// Rate returns the currently achieved rate in Mbps.
	Rate() float64
	// TransferredBytes returns the cumulative bytes delivered so far.
	TransferredBytes() float64
	// RemainingBytes returns the bytes still to deliver (+Inf for
	// probes).
	RemainingBytes() float64
	// Done reports whether the flow has completed or been stopped.
	Done() bool
	// Probe reports whether this is an unbounded measurement flow.
	Probe() bool
	// Stop terminates the flow immediately (probe tear-down or
	// cancelled transfer). Remaining bytes are not delivered.
	Stop()
	// Failed reports whether the flow was terminated by a fault (an
	// endpoint died or the pair was reset) rather than completing or
	// being stopped by its owner. A failed flow is Done, its onDone
	// callback never fires, and its remaining bytes were not delivered.
	Failed() bool
	// OnFail registers fn to run when the flow fails. Registering on an
	// already-failed flow fires fn immediately (a flow started against
	// a dead endpoint fails at start). At most one handler is held; a
	// later registration replaces the earlier one.
	OnFail(fn func())
}

// Cluster is a WAN substrate: a set of VMs spread over geo-distributed
// data centers, connected by links whose achievable bandwidth the
// upper layers can only observe through flows. Implementations are
// single-timeline and not safe for concurrent use; concurrency lives
// one level up (independent experiment drivers each own a Cluster).
type Cluster interface {
	// --- topology ---

	// NumDCs returns the number of data centers.
	NumDCs() int
	// NumVMs returns the total number of virtual machines.
	NumVMs() int
	// Regions returns the cluster's regions in DC order.
	Regions() []geo.Region
	// VMsOfDC returns the VM ids hosted in the given DC.
	VMsOfDC(dc int) []VMID
	// FirstVMOfDC returns the first (primary) VM of a DC.
	FirstVMOfDC(dc int) VMID
	// DCOf returns the DC index hosting the given VM.
	DCOf(id VMID) int
	// Spec returns the VMSpec of the given VM.
	Spec(id VMID) VMSpec
	// PerConnCapMbps returns the nominal single-connection throughput
	// cap between two DCs under current long-term conditions (for a
	// trace backend, the current trace sample; transient weather and
	// contention are not reflected — measure to see those).
	PerConnCapMbps(i, j int) float64

	// --- host metrics ---

	// SetCPULoad sets a VM's CPU utilization in [0, 1]. The analytics
	// engine calls this while tasks execute; high CPU load slightly
	// degrades achievable sending rate (sender-limited TCP).
	SetCPULoad(id VMID, load float64)
	// CPULoad returns the VM's CPU utilization as last set. It is what
	// VMStats reports as CPULoad, without the rest: reading it never
	// makes the substrate compute rates or retransmissions, so it is
	// the read for code that is about to write the load back.
	CPULoad(id VMID) float64
	// VMStats returns the current host metrics of a VM.
	VMStats(id VMID) VMStats

	// --- traffic control ---

	// SetPairLimit installs a rate limit (tc-style) on all traffic
	// from srcDC to dstDC, in Mbps. WANify's local agents use this to
	// throttle BW-rich links (§3.2.2).
	SetPairLimit(srcDC, dstDC int, mbps float64)
	// ClearPairLimit removes a pair rate limit.
	ClearPairLimit(srcDC, dstDC int)

	// --- flows ---

	// StartFlow starts a sized transfer of the given bytes from src to
	// dst using conns parallel connections. onDone, if non-nil, fires
	// when the transfer completes (not when it is stopped early).
	StartFlow(src, dst VMID, conns int, bytes float64, onDone func()) Flow
	// StartProbe starts an unbounded measurement flow (iPerf-style)
	// that runs until stopped.
	StartProbe(src, dst VMID, conns int) Flow
	// PairRate returns the current aggregate rate (Mbps) of all active
	// flows from srcDC to dstDC.
	PairRate(srcDC, dstDC int) float64
	// AwaitFlows advances the substrate until all given flows are
	// done, or until maxWait seconds have elapsed (returning an error
	// in that case). It stops at the exact completion instant of the
	// last flow.
	AwaitFlows(maxWait float64, flows ...Flow) error

	// --- faults ---
	//
	// Faults are injected, not emergent: the schedule is part of the
	// experiment configuration, empty by default, and every fault takes
	// effect through the substrate's own timer queue — so runs remain
	// deterministic per seed and fault-free runs are byte-identical to
	// builds that predate the fault model.

	// KillVM schedules the VM to die at absolute substrate time t (or
	// immediately when t <= Now). A dead VM stops accepting flows —
	// StartFlow/StartProbe against it return an already-failed flow —
	// and every active flow touching it fails at the instant of death.
	// Death is permanent.
	KillVM(id VMID, t float64)
	// PartitionDC severs a DC from the rest of the cluster during
	// [from, until): every inter-DC pair involving dc has achievable
	// rate zero while the partition holds. Flows on affected pairs are
	// not failed — they stall at rate 0 and resume when the partition
	// heals (TCP survives a transient partition; a peer that should
	// give up instead uses KillVM or ResetPair). Overlapping partitions
	// compose: a pair is severed while any partition covers it.
	PartitionDC(dc int, from, until float64)
	// ResetPair aborts every flow active on the (srcDC, dstDC) pair at
	// absolute time t — the mid-transfer connection-reset fault. The
	// affected flows fail; flows started on the pair afterwards are
	// unaffected.
	ResetPair(srcDC, dstDC int, t float64)
	// VMAlive reports whether the VM is accepting flows (true until a
	// KillVM fault fires for it).
	VMAlive(id VMID) bool

	// --- clock and timers ---

	// Now returns the current substrate time in seconds.
	Now() float64
	// RunFor advances the substrate by d seconds.
	RunFor(d float64)
	// RunUntil advances the substrate until time t.
	RunUntil(t float64)
	// After schedules fn to run once, delay seconds from now.
	After(delay float64, fn func(now float64))
	// Every schedules fn to run every interval seconds, starting one
	// interval from now; interval must be positive. The returned cancel
	// function stops future firings.
	Every(interval float64, fn func(now float64)) (cancel func())
}

// DescribePending names the still-undrained flows for a transfer
// timeout error: flow ids with their src/dst DCs, capped so a stuck
// thousand-flow shuffle stays readable.
func DescribePending(c Cluster, flows []Flow) string {
	const maxNamed = 8
	var b []byte
	named, pending := 0, 0
	for _, f := range flows {
		if f.Done() {
			continue
		}
		pending++
		if named == maxNamed {
			continue
		}
		if named > 0 {
			b = append(b, ", "...)
		}
		b = fmt.Appendf(b, "#%d dc%d->dc%d", f.ID(), c.DCOf(f.Src()), c.DCOf(f.Dst()))
		named++
	}
	if pending > named {
		b = fmt.Appendf(b, " and %d more", pending-named)
	}
	return string(b)
}
