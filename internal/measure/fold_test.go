package measure

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/tracesim"
)

// foldReference is the retired legacy integration rule, kept as
// Collect's fault-free oracle: tear the probes down, sum each surviving
// first probe's bytes over the window into its key's average rate
// (a probe a fault terminated contributes nothing and is billed as
// failed), then draw one noise value per key in key order.
func foldReference(ps *PendingSnapshot) (bwmatrix.Matrix, []substrate.VMStats, Report) {
	window := ps.collectWindow()
	sums := make([]float64, len(ps.pairs))
	rep := Report{ElapsedS: window, VMSeconds: window * float64(ps.sim.NumVMs())}
	ps.teardown(func(ch *chain) {
		seg := ch.segs[0]
		if seg.flow.Failed() {
			rep.FailedProbes++
			return
		}
		bytes := seg.flow.TransferredBytes() - seg.startBytes
		rep.BytesTransferred += bytes
		sums[ch.pair] += bytes * 8 / 1e6 / window // Mbps
	})
	out := bwmatrix.New(ps.n)
	for k, p := range ps.pairs {
		out[p[0]][p[1]] = noisy(sums[k], ps.opts)
	}
	return out, vmStatsInto(nil, ps.sim), rep
}

// staticIndependentReference is StaticIndependent over foldReference,
// one fresh single-pair snapshot per pair.
func staticIndependentReference(sim substrate.Cluster, opts Options) (bwmatrix.Matrix, Report) {
	n := sim.NumDCs()
	out := bwmatrix.New(n)
	var rep Report
	for _, p := range allPairs(n) {
		pair := [][2]int{p}
		ps := newPending(sim, n, pair, dcChains(sim, pair))
		ps.begin(opts)
		sim.RunFor(opts.DurationS)
		bw, _, r := foldReference(ps)
		out[p[0]][p[1]] = bw[p[0]][p[1]]
		rep = rep.Add(r)
	}
	return out, rep
}

// oracleClusters are the backends and topologies the oracle tests run
// on: a frozen and a fluctuating netsim, a trace replay, and DCs of two
// VMs (several chains per DC pair).
var oracleClusters = []struct {
	name string
	make func(t *testing.T) substrate.Cluster
}{
	{"frozen", func(*testing.T) substrate.Cluster { return frozenSim(4, 41) }},
	{"fluctuating", func(*testing.T) substrate.Cluster {
		return netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, 43))
	}},
	{"tracesim", func(t *testing.T) substrate.Cluster {
		sim, err := tracesim.New(tracesim.Config{Trace: tracesim.Diurnal8(), Seed: 47})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}},
	{"two-vm-dcs", func(*testing.T) substrate.Cluster {
		two := []substrate.VMSpec{substrate.T2Medium, substrate.T2Medium}
		return netsim.NewSim(netsim.Config{
			Regions: geo.TestbedSubset(3),
			VMs:     [][]substrate.VMSpec{two, two, {substrate.T2Medium}},
			Seed:    53,
		})
	}},
}

// sameBits reports whether two matrices are bitwise equal.
func sameBits(a, b bwmatrix.Matrix) bool {
	if a.N() != b.N() {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestCollectMatchesLegacyFoldWithoutFaults: whenever every probe
// lands, Collect reads exactly what the retired legacy rule read —
// matrix, host metrics and bill bitwise equal, every key Measured — on
// every backend and topology, for every key layout a measurement uses
// (all DC pairs, SnapshotByVM's VM pairs, one pair of
// StaticIndependent), collected on time and late. Twin clusters run the
// same begin; only the collector differs. The window begins at 3.1 s,
// where 3.1+1−3.1 lands below 1: a surviving first segment must
// integrate over the collection window, not the clock difference.
func TestCollectMatchesLegacyFoldWithoutFaults(t *testing.T) {
	layouts := []struct {
		name string
		keys func(c substrate.Cluster) *PendingSnapshot
	}{
		{"all-pairs", func(c substrate.Cluster) *PendingSnapshot { return recycle(nil, c) }},
		{"by-vm", func(c substrate.Cluster) *PendingSnapshot {
			keys, chains := vmPairs(c)
			return newPending(c, c.NumVMs(), keys, chains)
		}},
		{"single-pair", func(c substrate.Cluster) *PendingSnapshot {
			pair := [][2]int{{c.NumDCs() - 1, 0}}
			return newPending(c, c.NumDCs(), pair, dcChains(c, pair))
		}},
	}
	if settle := 3.1; (settle+1)-settle == 1 {
		t.Fatal("the window's clock difference is exact: the case does not exercise the collection window")
	}
	for _, cl := range oracleClusters {
		for _, lay := range layouts {
			for _, late := range []float64{0, 0.37} {
				t.Run(fmt.Sprintf("%s/%s/late=%v", cl.name, lay.name, late), func(t *testing.T) {
					var part *PartialSnapshot
					run := func(collect func(ps *PendingSnapshot) (bwmatrix.Matrix, []substrate.VMStats, Report)) (bwmatrix.Matrix, []substrate.VMStats, Report) {
						c := cl.make(t)
						c.RunFor(3.1)
						ps := lay.keys(c)
						ps.begin(SnapshotOptions(simrand.Derive(61, "oracle")))
						c.RunFor(1 + late)
						return collect(ps)
					}
					wantBW, wantStats, wantBill := run(foldReference)
					gotBW, gotStats, gotBill := run(func(ps *PendingSnapshot) (bwmatrix.Matrix, []substrate.VMStats, Report) {
						part = ps.Collect()
						return part.BW, part.Stats, part.Bill
					})
					if !sameBits(gotBW, wantBW) {
						t.Errorf("matrix diverges from the legacy rule:\n got %v\nwant %v", gotBW, wantBW)
					}
					if !reflect.DeepEqual(gotStats, wantStats) {
						t.Errorf("host metrics diverge:\n got %v\nwant %v", gotStats, wantStats)
					}
					if gotBill != wantBill {
						t.Errorf("bill %+v, want %+v", gotBill, wantBill)
					}
					for k, s := range part.Samples {
						if s.Outcome != PairMeasured || s.Retries != 0 {
							t.Errorf("key %v = %+v on a fault-free run, want Measured", part.Pairs[k], s)
						}
					}
				})
			}
		}
	}
}

// TestStaticIndependentMatchesLegacyWithoutFaults: StaticIndependent,
// which begins each pair's snapshot over the storage of the one before,
// reads bitwise what one fresh legacy snapshot per pair read.
func TestStaticIndependentMatchesLegacyWithoutFaults(t *testing.T) {
	for _, cl := range oracleClusters {
		t.Run(cl.name, func(t *testing.T) {
			opts := func() Options { return SnapshotOptions(simrand.Derive(67, "static")) }
			ref := cl.make(t)
			wantBW, wantRep := staticIndependentReference(ref, opts())
			sim := cl.make(t)
			gotBW, gotRep := StaticIndependent(sim, opts())
			if !sameBits(gotBW, wantBW) {
				t.Errorf("matrix diverges from the legacy rule:\n got %v\nwant %v", gotBW, wantBW)
			}
			if gotRep != wantRep {
				t.Errorf("bill %+v, want %+v", gotRep, wantRep)
			}
			if sim.Now() != ref.Now() {
				t.Errorf("clock at %v, want %v", sim.Now(), ref.Now())
			}
		})
	}
}

// TestSnapshotRetriesResetPair: a synchronous snapshot whose pair is
// reset mid-window retries it and reports the rate the pair saw while
// alive, near its fault-free reading, where the legacy rule read zero.
func TestSnapshotRetriesResetPair(t *testing.T) {
	opts := Options{DurationS: 1}
	run := func(reset bool) (bwmatrix.Matrix, Report, []string) {
		sim := frozenSim(4, 71)
		sim.RunFor(5)
		if reset {
			sim.ResetPair(0, 1, 5.4)
		}
		c := &probeLog{Cluster: sim}
		bw, _, rep := Snapshot(c, opts)
		return bw, rep, c.origin
	}
	clean, _, _ := run(false)
	bw, rep, origins := run(true)
	if rep.FailedProbes != 1 {
		t.Errorf("FailedProbes = %d, want the reset's one", rep.FailedProbes)
	}
	if retries := len(origins) - 4*3; retries != 1 || origins[len(origins)-1] != "retry" {
		t.Errorf("probe origins %q, want 12 snapshot probes and one retry", origins)
	}
	// Live 0.4 + 0.5 s of the window: diluted it would read ~0.8×.
	if r := bw[0][1] / clean[0][1]; r < 0.85 || r > 1 {
		t.Errorf("reset pair reads %.2f× its fault-free rate, want within [0.85, 1]", r)
	}
}

// TestBornFailedPairIsUnmeasurable: a pair whose probe is born failed
// (its endpoint died before the begin) is Unmeasurable and reads zero,
// in a snapshot and in a static measurement alike; its one retry finds
// the endpoint dead and starts nothing. Every other pair is Measured.
func TestBornFailedPairIsUnmeasurable(t *testing.T) {
	opts := Options{DurationS: 1}
	dead := func() *probeLog {
		sim := frozenSim(3, 73)
		sim.RunFor(5)
		sim.KillVM(2, 5)
		return &probeLog{Cluster: sim}
	}
	touches2 := func(p [2]int) bool { return p[0] == 2 || p[1] == 2 }

	c := dead()
	ps := BeginSnapshotInto(nil, c, opts)
	c.RunFor(1)
	part := ps.Collect()
	for k, p := range part.Pairs {
		s := part.Samples[k]
		switch {
		case touches2(p) && (s.Outcome != PairUnmeasurable || s.Mbps != 0 || s.Retries != 1):
			t.Errorf("born-failed pair %v = %+v, want Unmeasurable at 0 after one retry", p, s)
		case !touches2(p) && s.Outcome != PairMeasured:
			t.Errorf("healthy pair %v = %+v, want Measured", p, s)
		}
	}
	if len(c.probes) != 6 || part.Bill.FailedProbes != 4 {
		t.Errorf("%d failed of %d probes started, want VM 2's 4 of the 6 first probes and no retry", part.Bill.FailedProbes, len(c.probes))
	}

	c = dead()
	static, rep := StaticIndependent(c, opts)
	for _, p := range allPairs(3) {
		if v := static[p[0]][p[1]]; touches2(p) != (v == 0) {
			t.Errorf("static pair %v reads %.1f Mbps", p, v)
		}
	}
	if rep.FailedProbes != 4 || len(c.probes) != 6 {
		t.Errorf("static: %d failed of %d probes, want VM 2's 4 of 6", rep.FailedProbes, len(c.probes))
	}
}
