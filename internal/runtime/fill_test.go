package runtime_test

import (
	"reflect"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/substrate"
)

// fillRig is a controller on n frozen DCs that replans only when told
// (ctl.Regauge) and records every matrix its Predict hook is handed:
// the snapshot a replan is built from, filled.
type fillRig struct {
	sim   *netsim.Sim
	ctl   *rgauge.Controller
	snaps []bwmatrix.Matrix
}

func newFillRig(t *testing.T, n int, seed uint64, prior bwmatrix.Matrix) *fillRig {
	t.Helper()
	r := &fillRig{sim: frozenSim(n, seed)}
	d := deps(r.sim, deployAgents(r.sim, tightRows(r.sim, accuratePred(r.sim))), seed)
	predict := d.Predict
	d.Predict = func(snap bwmatrix.Matrix, stats []substrate.VMStats) bwmatrix.Matrix {
		r.snaps = append(r.snaps, snap.Clone())
		return predict(snap, stats)
	}
	// Hysteresis and cooldown out of reach, no staleness clock: every
	// replan is one the test asked for.
	r.ctl = rgauge.Start(d, rgauge.Config{
		Enabled: true, EpochS: 5, HysteresisEpochs: 1000, CooldownS: 1e9,
	}, prior, optimize.GlobalOptimize(prior, optimize.Options{}))
	t.Cleanup(r.ctl.Stop)
	return r
}

// regaugeAt runs the rig to time at and replans there.
func (r *fillRig) regaugeAt(t *testing.T, at float64) bwmatrix.Matrix {
	t.Helper()
	r.sim.RunUntil(at)
	before := r.ctl.Replans()
	r.ctl.Regauge()
	r.sim.RunFor(1)
	if r.ctl.Replans() != before+1 {
		t.Fatalf("re-gauge at t=%v applied no replan (incidents %v)", at, r.ctl.Incidents())
	}
	return r.snaps[len(r.snaps)-1]
}

// snapshotTwin is a frozen cluster like a rig's, with no controller,
// that takes the synchronous measure.Snapshot a rig re-gauging at the
// same instants takes: the same probes, drawing on the same noise
// streams in the same order.
type snapshotTwin struct {
	sim  *netsim.Sim
	opts func() measure.Options
}

func newSnapshotTwin(n int, seed uint64) *snapshotTwin {
	sim := frozenSim(n, seed)
	return &snapshotTwin{sim: sim, opts: deps(sim, nil, seed).SnapshotOpts}
}

// snapshotAt runs the twin to time at and snapshots there.
func (w *snapshotTwin) snapshotAt(at float64) bwmatrix.Matrix {
	w.sim.RunUntil(at)
	snap, _, _ := measure.Snapshot(w.sim, w.opts())
	return snap
}

// TestMeasuredPairsReplanAsMeasured: where every probe lands, the
// controller hands Predict what a synchronous measure.Snapshot of a
// twin cluster reads, bit for bit — at its first replan and at one
// 500 s later — whatever prior it was started from: a measured pair
// replans at its measurement, however old or far off the prior, and
// nothing is filled or fabricated.
func TestMeasuredPairsReplanAsMeasured(t *testing.T) {
	for _, k := range []float64{1, 10} {
		twin := newSnapshotTwin(4, 71)
		r := newFillRig(t, 4, 71, accuratePred(twin.sim).Scale(k))
		var want bwmatrix.Matrix
		for _, at := range []float64{20, 520} {
			want = twin.snapshotAt(at)
			if got := r.regaugeAt(t, at); !reflect.DeepEqual(got, want) {
				t.Errorf("prior ×%v, t=%v: replanned from\n%v\nthe twin's snapshot reads\n%v", k, at, got, want)
			}
		}
		if !reflect.DeepEqual(r.ctl.CurrentPlan(), optimize.GlobalOptimize(want, optimize.Options{})) {
			t.Errorf("prior ×%v: the plan is not the one the twin's snapshot gives", k)
		}
		if g := r.ctl.Gauge(); g.FusedPairs != 0 || g.LastCoverage != 1 {
			t.Errorf("prior ×%v: a fully measured run filled %d pairs at coverage %v", k, g.FusedPairs, g.LastCoverage)
		}
	}
}

// TestFillTakesLastMeasuredValue: a pair the probes cannot measure
// replans at the value last measured for it — what a twin cluster's
// synchronous snapshot read there — not at the prior the controller
// started from nor a blend of the two.
func TestFillTakesLastMeasuredValue(t *testing.T) {
	const dark = 4
	measured := newSnapshotTwin(5, 72).snapshotAt(20)
	r := newFillRig(t, 5, 72, accuratePred(frozenSim(5, 72)).Scale(3))
	r.regaugeAt(t, 20) // every pair measured
	// DC 4 dark across the next window: its 8 of 20 pairs are
	// unmeasurable, coverage exactly the 0.6 gate, so the replan lands.
	r.sim.PartitionDC(dark, 39, 1e9)
	filled := r.regaugeAt(t, 40)
	if ev := r.ctl.Events()[1]; ev.Coverage != 0.6 {
		t.Fatalf("second replan coverage %v, want 0.6", ev.Coverage)
	}
	for j := range filled {
		if j == dark {
			continue
		}
		for _, p := range [][2]int{{dark, j}, {j, dark}} {
			if got, want := filled[p[0]][p[1]], measured[p[0]][p[1]]; got != want {
				t.Errorf("unmeasurable pair %v replanned at %v, want the %v last measured (prior %v)",
					p, got, want, 3*accuratePred(r.sim)[p[0]][p[1]])
			}
		}
	}
	if g := r.ctl.Gauge(); g.FusedPairs != 8 || g.UnmeasurablePairs != 8 {
		t.Errorf("gauge filled/unmeasurable = %d/%d, want 8/8", g.FusedPairs, g.UnmeasurablePairs)
	}
}

// TestFillFloorsAtOneMbps: a fill never replans a pair below the 1 Mbps
// blackout belief, even when the value it would take is lower.
func TestFillFloorsAtOneMbps(t *testing.T) {
	const dark = 4
	prior := accuratePred(frozenSim(5, 73))
	for j := range prior {
		if j != dark {
			prior[dark][j], prior[j][dark] = 0, 0.25
		}
	}
	r := newFillRig(t, 5, 73, prior)
	r.sim.PartitionDC(dark, 19, 1e9) // dark before anything was measured there
	snap := r.regaugeAt(t, 20)
	for j := range snap {
		if j == dark {
			continue
		}
		if snap[dark][j] != 1 || snap[j][dark] != 1 {
			t.Errorf("unmeasurable pairs (%d,%d)/(%d,%d) replanned at %v/%v, want the 1 Mbps floor",
				dark, j, j, dark, snap[dark][j], snap[j][dark])
		}
	}
}
