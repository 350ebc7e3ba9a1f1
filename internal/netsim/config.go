// Package netsim is the reference substrate.Cluster backend of the
// WANify reproduction: a deterministic fluid-flow simulator of
// wide-area traffic between geo-distributed data centers. (The
// trace-replay backend, internal/tracesim, layers recorded bandwidth
// timeseries over this same machinery.)
//
// It stands in for the paper's AWS VPC testbed and models exactly the
// three mechanisms WANify exploits:
//
//  1. Per-connection WAN throughput decays with distance. A single TCP
//     connection between nearby regions achieves far more than between
//     distant ones (the paper's 1700 Mbps US East↔US West vs 121 Mbps
//     US East↔AP SE anchors, §1).
//  2. Concurrent transfers contend with an RTT bias: when flows share a
//     VM's WAN capacity, short-RTT connections take a super-linear
//     share, so "nearby DCs occupy most of the available network"
//     (§2.2, Fig. 2(b)).
//  3. Parallel connections scale a flow's achievable bandwidth roughly
//     linearly (§3.2.1) until VM NIC caps, memory pressure, or the
//     congestion knee bind (">8 connections stopped helping", §2.2).
//
// The simulator is event-driven and fully deterministic for a given
// seed. All bandwidth values are in Mbps; sizes in bytes; time in
// (simulated) seconds.
//
// Rate allocation — the hot path exercised on every flow start/finish,
// connection resize and fluctuation tick — is incremental: per-VM
// connection counts and per-DC-pair flow indexes are maintained as
// flows churn, invalidations are scoped to events that can actually
// change rates, and the progressive-filling allocator recycles its
// working state across invocations (zero steady-state allocations)
// while producing bit-identical rates to a from-scratch recomputation.
// See the architecture comment in alloc.go and DESIGN.md §2.
package netsim

import (
	"math"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// The simulator speaks the substrate vocabulary: VM identifiers, specs
// and host-metric snapshots are the shared types every backend uses
// (instance shapes live in internal/substrate next to the Cluster
// interface). The aliases keep netsim's own code and tests terse.
type (
	// VMID identifies a virtual machine within a Sim.
	VMID = substrate.VMID
	// FlowID identifies a flow within a Sim.
	FlowID = substrate.FlowID
	// VMSpec describes the network-relevant shape of a virtual machine.
	VMSpec = substrate.VMSpec
	// VMStats is a snapshot of a VM's host-level metrics (Md, Ci, Nr).
	VMStats = substrate.VMStats
)

// The simulator's physics. None of these was ever run at another value;
// DESIGN.md §2 tabulates them with their calibration.
const (
	// perConnRefMbps is the single-connection throughput at the
	// reference distance, the paper's US East↔US West (see perConnA).
	perConnRefMbps = 1700
	// perConnExp is the distance-decay exponent of per-connection
	// throughput; it reproduces the paper's 121 Mbps US East↔AP SE
	// anchor within 2%.
	perConnExp = 1.9
	// minPathKm floors the effective path distance so nearby DCs do not
	// get unbounded per-connection caps.
	minPathKm = 500

	// fluctSigma is the volatility of the per-link Ornstein–Uhlenbeck
	// bandwidth factor; it yields a stable-runtime-BW standard deviation
	// near the ~184 Mbps the paper reports for its collected datasets
	// (§5.1). fluctTheta is its mean-reversion rate per second.
	fluctSigma = 0.13
	fluctTheta = 0.25
	// spikeProbPerSec is the per-second probability that a link enters
	// a transient degradation episode; spikeMeanDurS is the episode's
	// mean duration in seconds.
	spikeProbPerSec = 0.002
	spikeMeanDurS   = 30

	// congestionSlope is the capacity degradation per connection beyond
	// the congestion knee. This is what makes blind uniform parallelism
	// (WANify-P) lose to AIMD-managed pools: 8 connections to every peer
	// drives a VM far past the knee (§5.3.1).
	congestionSlope = 0.045
	// bufferMBPerConn is the memory each connection's socket buffers
	// consume, feeding the Md feature.
	bufferMBPerConn = 3

	// rampRTTs models TCP slow start: a new flow's per-connection cap
	// ramps to full over roughly rampRTTs round trips. Opening parallel
	// connections shortens the ramp (aggregate initial window grows with
	// the connection count), which is part of why parallel connections
	// help small WAN transfers.
	rampRTTs = 4
	// rampMinFactor is the cap fraction at flow start. NewSim copies it
	// into Sim.rampMinFactor, a typed float64, so rampFactor's level
	// arithmetic runs in float64 rather than as an exact constant
	// expression.
	rampMinFactor = 0.35
)

// perConnA is the per-connection cap's distance-decay numerator,
// perConnRefMbps·perConnRefKm^perConnExp, where the reference distance
// perConnRefKm is the haversine US East↔US West distance (≈3877 km).
var perConnA = perConnRefMbps * math.Pow(geo.DistanceKm(geo.USEast, geo.USWest), perConnExp)

// Config configures a Sim. The two physics knobs it carries are the
// ones the netsim ablation sweeps; zero takes the default listed on
// each field (applied by NewSim).
type Config struct {
	// Regions lists the data centers in cluster order.
	Regions []geo.Region
	// VMs lists the virtual machines per DC; VMs[i] are the machines in
	// Regions[i]. Every DC must have at least one VM.
	VMs [][]VMSpec
	// Seed feeds all stochastic processes. The same seed reproduces the
	// same network weather.
	Seed uint64

	// RTTBiasExp is the exponent of the RTT bias in contention shares:
	// a connection's weight is 1/RTT^RTTBiasExp (default 1.5, between
	// ACK-clocking (1) and loss-synchronized (2) regimes).
	RTTBiasExp float64
	// CongestionKnee is the per-VM total connection count beyond which
	// effective NIC capacity degrades (default 24).
	CongestionKnee int

	// Frozen disables link fluctuation and degradation episodes,
	// giving a perfectly stable network. Useful in unit tests.
	Frozen bool
}

// withDefaults returns a copy of c with zero physics knobs replaced by
// their documented defaults.
func (c Config) withDefaults() Config {
	if c.RTTBiasExp == 0 {
		c.RTTBiasExp = 1.5
	}
	if c.CongestionKnee == 0 {
		c.CongestionKnee = 24
	}
	return c
}

// UniformCluster returns a Config with one VM of the given spec in each
// region — the paper's default deployment (1 worker per DC).
func UniformCluster(regions []geo.Region, spec VMSpec, seed uint64) Config {
	vms := make([][]VMSpec, len(regions))
	for i := range vms {
		vms[i] = []VMSpec{spec}
	}
	return Config{Regions: regions, VMs: vms, Seed: seed}
}

// FleetCluster returns a Config for a synthetic fleet topology
// (geo.Fleet): dcs data centers with vmsPerDC identical VMs each, link
// fluctuation frozen (fleet-scale runs exercise allocation and
// planning, not network weather). RTT and per-connection bandwidth
// derive from the generated geography exactly as on the testbed.
func FleetCluster(dcs, vmsPerDC int, spec VMSpec, seed uint64) Config {
	if vmsPerDC < 1 {
		vmsPerDC = 1
	}
	regions := geo.Fleet(dcs, seed)
	vms := make([][]VMSpec, len(regions))
	for i := range vms {
		vms[i] = make([]VMSpec, vmsPerDC)
		for j := range vms[i] {
			vms[i][j] = spec
		}
	}
	return Config{Regions: regions, VMs: vms, Seed: seed, Frozen: true}
}
