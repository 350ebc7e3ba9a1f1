// Package dataset implements the data-collection half of WANify's
// offline module — the Bandwidth Analyzer of §4.1.1.
//
// Each generated sample corresponds to one "monitoring session" of the
// paper: a cluster of some size is observed under randomized network
// weather and host load, a cheap 1-second snapshot is taken, and the
// expensive ≥20-second stable runtime bandwidth is recorded as the
// label. One session yields one feature row per ordered DC pair, with
// the features of Table 3:
//
//	N      number of DCs in the VM-based cluster
//	S_BWij real-time snapshot BW between VMs at DCs i and j
//	Md     memory utilization at the receiving end
//	Ci     CPU load at the VM in DC i
//	Nr     number of retransmissions (per second, at the sender)
//	Dij    physical distance (miles) between VMs at DCs i and j
package dataset

import (
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// Feature indices of the Table 3 feature vector.
const (
	FeatN       = iota // cluster size
	FeatSnapBW         // S_BWij, Mbps
	FeatMemDst         // Md, [0,1]
	FeatCPUSrc         // Ci, [0,1]
	FeatRetrans        // Nr, events/s
	FeatDist           // Dij, miles
	NumFeatures
)

// FeatureNames maps feature indices to the paper's names.
var FeatureNames = [NumFeatures]string{"N", "S_BWij", "Md", "Ci", "Nr", "Dij"}

// PairFeatures is the Table 3 feature set for one ordered DC pair.
type PairFeatures struct {
	N             int
	SnapshotMbps  float64
	MemUtilDst    float64
	CPULoadSrc    float64
	RetransSrc    float64
	DistanceMiles float64
}

// Vector flattens the features into the canonical order.
func (p PairFeatures) Vector() []float64 {
	return p.VectorInto(nil)
}

// VectorInto appends the canonical feature order into dst[:0] — the
// allocation-free variant for the per-pair prediction loops, which
// would otherwise allocate one vector per matrix cell per replan.
func (p PairFeatures) VectorInto(dst []float64) []float64 {
	return append(dst[:0],
		float64(p.N), p.SnapshotMbps, p.MemUtilDst,
		p.CPULoadSrc, p.RetransSrc, p.DistanceMiles,
	)
}

// SnapshotFeatures builds the per-pair feature matrix for the current
// state of a simulated cluster. It takes a 1-second all-pairs snapshot
// (consuming simulated time) and combines it with host metrics and
// geography. Both the Bandwidth Analyzer (offline, labeled) and the
// online Runtime Bandwidth Determination module use this path.
func SnapshotFeatures(sim substrate.Cluster, rng *simrand.Source) ([][]PairFeatures, measure.Report) {
	snap, stats, rep := measure.Snapshot(sim, measure.SnapshotOptions(rng))
	return FeaturesFromSnapshot(sim, snap, stats), rep
}

// FeaturesFromSnapshot assembles the per-pair feature matrix from
// already-collected snapshot parts (a sampled bandwidth matrix plus
// host metrics). SnapshotFeatures takes the snapshot and delegates
// here; the serving plane's model refresh collects its snapshot
// asynchronously (measure.BeginSnapshotInto, then Collect) and feeds
// the collected BW and Stats in directly, as the re-gauging controller
// does through FeaturesFromSnapshotInto.
func FeaturesFromSnapshot(sim substrate.Cluster, snap bwmatrix.Matrix, stats []substrate.VMStats) [][]PairFeatures {
	return FeaturesFromSnapshotInto(nil, sim, snap, stats)
}

// FeaturesFromSnapshotInto is FeaturesFromSnapshot into dst — nil, or
// an earlier result of this function — whose rows are reused where
// they hold the cluster's n DCs. Every entry is rewritten, the
// diagonal's zero value included, so the result equals
// FeaturesFromSnapshot's whatever dst held, and is valid until the next
// call with the same dst.
func FeaturesFromSnapshotInto(dst [][]PairFeatures, sim substrate.Cluster, snap bwmatrix.Matrix, stats []substrate.VMStats) [][]PairFeatures {
	n := sim.NumDCs()
	if len(dst) != n {
		dst = make([][]PairFeatures, n)
	}
	regions := sim.Regions()
	for i := 0; i < n; i++ {
		if len(dst[i]) != n {
			dst[i] = make([]PairFeatures, n)
		}
		for j := 0; j < n; j++ {
			if i == j {
				dst[i][j] = PairFeatures{}
				continue
			}
			src, to := sim.FirstVMOfDC(i), sim.FirstVMOfDC(j)
			dst[i][j] = PairFeatures{
				N:             n,
				SnapshotMbps:  snap[i][j],
				MemUtilDst:    stats[to].MemUtil,
				CPULoadSrc:    stats[src].CPULoad,
				RetransSrc:    stats[src].RetransPerSec,
				DistanceMiles: geo.DistanceMiles(regions[i], regions[j]),
			}
		}
	}
	return dst
}

// SnapshotFeaturesByVM builds per-VM-pair features for multi-VM
// deployments (association, §3.3.3). The returned matrix is indexed by
// VM; entries for VM pairs within one DC are zero-valued. Predictions
// over these rows are summed per DC pair by the caller.
func SnapshotFeaturesByVM(sim substrate.Cluster, rng *simrand.Source) ([][]PairFeatures, measure.Report) {
	snap, stats, rep := measure.SnapshotByVM(sim, measure.SnapshotOptions(rng))
	nv := sim.NumVMs()
	regions := sim.Regions()
	out := make([][]PairFeatures, nv)
	for s := 0; s < nv; s++ {
		out[s] = make([]PairFeatures, nv)
		for d := 0; d < nv; d++ {
			ds, dd := sim.DCOf(substrate.VMID(s)), sim.DCOf(substrate.VMID(d))
			if s == d || ds == dd {
				continue
			}
			out[s][d] = PairFeatures{
				N:             sim.NumDCs(),
				SnapshotMbps:  snap[s][d],
				MemUtilDst:    stats[d].MemUtil,
				CPULoadSrc:    stats[s].CPULoad,
				RetransSrc:    stats[s].RetransPerSec,
				DistanceMiles: geo.DistanceMiles(regions[ds], regions[dd]),
			}
		}
	}
	return out, rep
}

// GenConfig configures training-set generation.
type GenConfig struct {
	// Sizes are the cluster sizes to sample; default [2..8], matching
	// the paper's "[2, Nmax]" coverage (§3.3.2).
	Sizes []int
	// DrawsPerSize is the number of monitoring sessions per size
	// (default 20). The paper collected 600 sessions total.
	DrawsPerSize int
	// Seed drives all randomness.
	Seed uint64
}

// maxWarmupS is the maximum random warmup before sampling, which
// diversifies the network-weather states a session sees. Every session
// runs on T3Nano VMs, the paper's monitoring instance.
const maxWarmupS = 180

func (c GenConfig) withDefaults() GenConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2, 3, 4, 5, 6, 7, 8}
	}
	if c.DrawsPerSize == 0 {
		c.DrawsPerSize = 20
	}
	return c
}

// Generate runs monitoring sessions across cluster sizes and returns
// the labeled dataset together with the aggregate measurement report
// (used to price data collection, cf. the paper's ~$150 collection
// cost note in §5.1).
func Generate(cfg GenConfig) (rf.Dataset, measure.Report) {
	cfg = cfg.withDefaults()
	rng := simrand.Derive(cfg.Seed, "dataset")
	var ds rf.Dataset
	var rep measure.Report
	for _, size := range cfg.Sizes {
		for d := 0; d < cfg.DrawsPerSize; d++ {
			rows, labels, r := session(size, rng.Derive("session"))
			for k := range rows {
				ds.X = append(ds.X, rows[k])
				ds.Y = append(ds.Y, labels[k])
			}
			rep = rep.Add(r)
		}
	}
	return ds, rep
}

// session runs one monitoring session: build a random cluster of the
// given size, randomize load, snapshot, then measure stable labels.
func session(size int, rng *simrand.Source) (rows [][]float64, labels []float64, rep measure.Report) {
	// Random subset of the canonical testbed for distance diversity.
	all := geo.Testbed()
	perm := rng.Perm(len(all))
	regions := make([]geo.Region, size)
	for i := 0; i < size; i++ {
		regions[i] = all[perm[i]]
	}

	simCfg := netsim.UniformCluster(regions, substrate.T3Nano, rng.Uint64())
	sim := netsim.NewSim(simCfg)

	// Randomize host load: CPU busy on some VMs, background transfers
	// on some pairs, so Md/Ci/Nr vary across sessions.
	for v := 0; v < sim.NumVMs(); v++ {
		if rng.Bool(0.5) {
			sim.SetCPULoad(substrate.VMID(v), rng.Uniform(0.1, 0.9))
		}
	}
	var background []substrate.Flow
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if i != j && rng.Bool(0.3) {
				f := sim.StartProbe(sim.FirstVMOfDC(i), sim.FirstVMOfDC(j), 1+rng.IntN(6))
				background = append(background, f)
			}
		}
	}
	sim.RunFor(rng.Uniform(5, maxWarmupS))

	feats, r1 := SnapshotFeatures(sim, rng.Derive("noise"))
	label, r2 := measure.StaticSimultaneous(sim, measure.StableOptions())
	rep = r1.Add(r2)

	for _, f := range background {
		f.Stop()
	}

	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if i == j {
				continue
			}
			rows = append(rows, feats[i][j].Vector())
			labels = append(labels, label[i][j])
		}
	}
	return rows, labels, rep
}
