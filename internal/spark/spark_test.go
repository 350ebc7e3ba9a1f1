package spark

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

func frozenSim(n int, seed uint64) *netsim.Sim {
	cfg := netsim.UniformCluster(geo.TestbedSubset(n), substrate.T2Medium, seed)
	cfg.Frozen = true
	return netsim.NewSim(cfg)
}

// localitySched is a minimal in-package scheduler for engine tests.
type localitySched struct{}

func (localitySched) Name() string { return "test-locality" }
func (localitySched) Place(_ int, _ Stage, layout []float64) Placement {
	return LocalityPlacement(layout)
}

// TestPlacementNormalize checks normalization semantics.
func TestPlacementNormalize(t *testing.T) {
	p := Placement{2, 0, 2}.Normalize()
	if p[0] != 0.5 || p[1] != 0 || p[2] != 0.5 {
		t.Errorf("normalize = %v", p)
	}
	u := Placement{0, 0}.Normalize()
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Errorf("degenerate normalize = %v, want uniform", u)
	}
	neg := Placement{-1, 1}.Normalize()
	if neg[0] != 0 || neg[1] != 1 {
		t.Errorf("negative entries mishandled: %v", neg)
	}
}

// TestMigrationMatrixMinimal checks migration only moves the imbalance.
func TestMigrationMatrixMinimal(t *testing.T) {
	layout := []float64{100, 0, 0}
	target := Placement{0.5, 0.25, 0.25}
	m := MigrationMatrix(layout, target)
	if m[0][1] != 25 || m[0][2] != 25 {
		t.Errorf("migration = %v", m)
	}
	if m[1][0] != 0 && m[2][0] != 0 {
		t.Error("deficit DCs should not send")
	}
	// Locality placement moves nothing.
	z := MigrationMatrix(layout, LocalityPlacement(layout))
	for i := range z {
		for j := range z[i] {
			if z[i][j] != 0 {
				t.Errorf("locality migration [%d][%d] = %v", i, j, z[i][j])
			}
		}
	}
}

// TestShuffleMatrixAllToAll checks hash-shuffle semantics: every source
// sends every destination its share, local data excluded.
func TestShuffleMatrixAllToAll(t *testing.T) {
	layout := []float64{80, 20, 0}
	target := Placement{0.5, 0.25, 0.25}
	m := ShuffleMatrix(layout, target)
	if m[0][1] != 20 || m[0][2] != 20 {
		t.Errorf("row 0 = %v", m[0])
	}
	if m[1][0] != 10 || m[1][2] != 5 {
		t.Errorf("row 1 = %v", m[1])
	}
	if m[0][0] != 0 || m[1][1] != 0 {
		t.Error("diagonal must be zero (local data is free)")
	}
}

// TestTransferConservation property-checks both transfer builders:
// migration moves exactly the total imbalance; shuffle moves
// layout[i]*(1-target[i]) from each source.
func TestTransferConservation(t *testing.T) {
	f := func(raw [4]uint16, tRaw [4]uint8) bool {
		layout := make([]float64, 4)
		for i, v := range raw {
			layout[i] = float64(v)
		}
		target := make(Placement, 4)
		for i, v := range tRaw {
			target[i] = float64(v) + 1
		}
		target = target.Normalize()
		total := 0.0
		for _, b := range layout {
			total += b
		}
		if total == 0 {
			return true
		}
		// Migration: inflow at each deficit DC equals its deficit.
		mig := MigrationMatrix(layout, target)
		for j := 0; j < 4; j++ {
			in, out := 0.0, 0.0
			for i := 0; i < 4; i++ {
				in += mig[i][j]
				out += mig[j][i]
			}
			want := total*target[j] - layout[j]
			if math.Abs((in-out)-want) > 1e-6*total {
				return false
			}
		}
		// Shuffle: each source exports layout[i] * (1 - target[i]).
		sh := ShuffleMatrix(layout, target)
		for i := 0; i < 4; i++ {
			out := 0.0
			for j := 0; j < 4; j++ {
				out += sh[i][j]
			}
			if math.Abs(out-layout[i]*(1-target[i])) > 1e-6*total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestJobValidate checks shape validation.
func TestJobValidate(t *testing.T) {
	good := Job{Name: "j", InputBytes: []float64{1, 2}, Stages: []Stage{{Name: "s", Selectivity: 1}}}
	if err := good.Validate(2); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	bad := []Job{
		{Name: "wrong-n", InputBytes: []float64{1}, Stages: []Stage{{}}},
		{Name: "no-stages", InputBytes: []float64{1, 2}},
		{Name: "neg", InputBytes: []float64{1, 2}, Stages: []Stage{{Selectivity: -1}}},
		{Name: "neg-input", InputBytes: []float64{1, -2}, Stages: []Stage{{Selectivity: 1}}},
		{Name: "nan-input", InputBytes: []float64{math.NaN(), 2}, Stages: []Stage{{Selectivity: 1}}},
		{Name: "inf-input", InputBytes: []float64{1, math.Inf(1)}, Stages: []Stage{{Selectivity: 1}}},
	}
	for _, j := range bad {
		if err := j.Validate(2); err == nil {
			t.Errorf("job %q accepted", j.Name)
		}
	}
}

// TestEngineRunsSimpleJob executes a two-stage job and checks the
// accounting: non-zero JCT, WAN bytes matching the shuffle, itemized
// cost, stage reports.
func TestEngineRunsSimpleJob(t *testing.T) {
	sim := frozenSim(4, 1)
	eng := NewEngine(sim, cost.DefaultRates())
	job := Job{
		Name:       "smoke",
		InputBytes: []float64{4e9, 4e9, 4e9, 4e9},
		Stages: []Stage{
			{Name: "map", Kind: MapKind, SecPerGB: 2, Selectivity: 0.5},
			{Name: "reduce", Kind: ReduceKind, SecPerGB: 3, Selectivity: 0.1},
		},
	}
	res, err := eng.RunJob(job, localitySched{}, SingleConn{})
	if err != nil {
		t.Fatal(err)
	}
	if res.JCTSeconds <= 0 {
		t.Error("zero JCT")
	}
	if len(res.Stages) != 2 {
		t.Fatalf("%d stage reports", len(res.Stages))
	}
	// Map stage under locality moves nothing; reduce shuffles
	// 8 GB x (3/4 cross-DC) = 6 GB.
	if res.Stages[0].WANBytes != 0 {
		t.Errorf("map moved %v bytes under locality", res.Stages[0].WANBytes)
	}
	if math.Abs(res.Stages[1].WANBytes-6e9) > 1e6 {
		t.Errorf("shuffle moved %v bytes, want 6e9", res.Stages[1].WANBytes)
	}
	if res.Cost.ComputeUSD <= 0 || res.Cost.NetworkUSD <= 0 || res.Cost.StorageUSD <= 0 {
		t.Errorf("cost breakdown has zeros: %+v", res.Cost)
	}
	if res.MinShuffleMbps <= 0 {
		t.Error("min shuffle BW not observed")
	}
	// Compute time: map 4 GB/DC x 2 s/GB = 8 s; reduce 2 GB/DC x 3 = 6 s.
	if math.Abs(res.Stages[0].ComputeS-8) > 0.01 {
		t.Errorf("map compute %v s, want 8", res.Stages[0].ComputeS)
	}
	if math.Abs(res.Stages[1].ComputeS-6) > 0.01 {
		t.Errorf("reduce compute %v s, want 6", res.Stages[1].ComputeS)
	}
}

// TestEngineHeterogeneousCompute checks per-DC compute rates gate the
// stage: an extra VM halves a DC's compute time share.
func TestEngineHeterogeneousCompute(t *testing.T) {
	regions := geo.TestbedSubset(2)
	cfg := netsim.Config{
		Regions: regions,
		VMs: [][]substrate.VMSpec{
			{substrate.T2Medium, substrate.T2Medium}, // double compute in DC0
			{substrate.T2Medium},
		},
		Seed: 2, Frozen: true,
	}
	sim := netsim.NewSim(cfg)
	eng := NewEngine(sim, cost.DefaultRates())
	rates := eng.ComputeRates()
	if rates[0] != 2 || rates[1] != 1 {
		t.Fatalf("compute rates %v", rates)
	}
}

// TestConnPolicies checks the three static policies.
func TestConnPolicies(t *testing.T) {
	sim := frozenSim(3, 3)
	if got := (SingleConn{}).Conns(0, 1); got != 1 {
		t.Errorf("single = %d", got)
	}
	if got := (UniformConn{K: 8}).Conns(0, 1); got != 8 {
		t.Errorf("uniform = %d", got)
	}
	if got := (UniformConn{}).Conns(0, 1); got != 1 {
		t.Errorf("uniform zero-K = %d", got)
	}
	m := make([][]int, 3)
	for i := range m {
		m[i] = []int{1, 5, 9}
	}
	fc := FixedConn{Cluster: sim, Matrix: m}
	if got := fc.Conns(sim.FirstVMOfDC(0), 2); got != 9 {
		t.Errorf("fixed = %d", got)
	}
	if got := fc.Conns(sim.FirstVMOfDC(1), 1); got != 1 {
		t.Errorf("fixed same-DC = %d", got)
	}
}

// TestEngineDeterminism checks two identical runs agree exactly.
func TestEngineDeterminism(t *testing.T) {
	run := func() RunResult {
		cfg := netsim.UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, 77)
		sim := netsim.NewSim(cfg) // fluctuation on
		eng := NewEngine(sim, cost.DefaultRates())
		job := Job{
			Name:       "det",
			InputBytes: []float64{2e9, 2e9, 2e9, 2e9},
			Stages: []Stage{
				{Name: "m", Kind: MapKind, SecPerGB: 1, Selectivity: 1},
				{Name: "r", Kind: ReduceKind, SecPerGB: 1, Selectivity: 0.1},
			},
		}
		res, err := eng.RunJob(job, localitySched{}, UniformConn{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.JCTSeconds != b.JCTSeconds || a.WANBytes != b.WANBytes || a.MinShuffleMbps != b.MinShuffleMbps {
		t.Errorf("runs differ: %.6f/%.6f JCT, %v/%v bytes", a.JCTSeconds, b.JCTSeconds, a.WANBytes, b.WANBytes)
	}
}

// TestEngineRejectsBadJob checks validation wiring.
func TestEngineRejectsBadJob(t *testing.T) {
	sim := frozenSim(3, 4)
	eng := NewEngine(sim, cost.DefaultRates())
	_, err := eng.RunJob(Job{Name: "bad", InputBytes: []float64{1}}, localitySched{}, SingleConn{})
	if err == nil {
		t.Error("bad job accepted")
	}
}

// TestPriceEnergyMatchPerEntryFold locks price and energy, which read
// each stage's pair list and resolve each DC's egress rate and grid
// intensity once into a table, to the per-entry fold through
// Rates.EgressUSD / EnergyRates.IntensityFor over the dense matrix the
// list was read from — every dollar and gram bit for bit, on a 100-DC
// fleet whose region codes hit nested prefixes, single prefixes and the
// defaults.
func TestPriceEnergyMatchPerEntryFold(t *testing.T) {
	const n = 100
	sim := netsim.NewSim(netsim.FleetCluster(n, 2, substrate.T2Medium, 11))
	rates := cost.DefaultRates()
	rates.EgressPerGB = map[string]float64{
		"fleet-na-":          0.09,
		"fleet-na-virginia":  0.07, // nested: the longer prefix must win
		"fleet-eu-":          0.085,
		"fleet-eu-frankfurt": 0.1,
		"fleet-ap-tokyo-1":   0.114,
		"fleet-sa-":          0.138,
	}
	eng := NewEngine(sim, rates)
	eng.energyRates.GPerKWh = map[string]float64{
		"fleet-na-":          379,
		"fleet-na-oregon":    220,
		"fleet-eu-":          316,
		"fleet-eu-stockholm": 41,
		"fleet-ap-mumbai":    708,
		"fleet-sa-":          98,
	}

	rng := simrand.Derive(23, "spark-price")
	res := RunResult{JCTSeconds: 321.5, Stages: make([]StageReport, 3)}
	dense := make([][][]float64, len(res.Stages))
	for s := range res.Stages {
		m := newMatrix(n)
		for i := range m {
			if !rng.Bool(0.15) {
				continue // fleet jobs touch a handful of source DCs
			}
			for j := range m[i] {
				m[i][j] = rng.Uniform(0, 3e9) // diagonal included: it must not be priced
			}
		}
		dense[s] = m
		res.Stages[s].Pairs = pairsOfDense(m)
	}
	job := Job{InputBytes: make([]float64, n)}
	job.InputBytes[3], job.InputBytes[70] = 40e9, 12.5e9

	var wantUSD, wantKWh, wantKg, wantCompKg float64
	regions := sim.Regions()
	for _, m := range dense {
		for i := range m {
			for j, b := range m[i] {
				if i != j {
					wantUSD += rates.EgressUSD(regions[i], b)
					kwh := eng.energyRates.NetworkKWh(b)
					wantKWh += kwh
					wantKg += kwh * eng.energyRates.IntensityFor(regions[i]) / 1000
				}
			}
		}
	}
	for v := 0; v < sim.NumVMs(); v++ {
		id := substrate.VMID(v)
		wantCompKg += eng.energyRates.ComputeKWh(sim.Spec(id), res.JCTSeconds) * eng.energyRates.IntensityFor(regions[sim.DCOf(id)]) / 1000
	}

	if got := eng.price(job, res).NetworkUSD; got != wantUSD || got == 0 {
		t.Errorf("NetworkUSD = %v, per-entry fold %v", got, wantUSD)
	}
	e := eng.energy(res)
	if e.NetworkKWh != wantKWh || e.NetworkKgCO2 != wantKg || e.ComputeKgCO2 != wantCompKg {
		t.Errorf("energy = %+v, per-entry fold network %v kWh %v kg, compute %v kg", e, wantKWh, wantKg, wantCompKg)
	}
}
