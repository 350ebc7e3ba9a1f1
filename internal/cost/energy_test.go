package cost

import (
	"math"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// TestIntensityForPrefix checks the longest-prefix lookup discipline:
// exact codes, prefix families ("eu-", "sa-"), the ap-south-1 vs
// ap-southeast-* near-collision, and the default fallback for unknown
// and empty codes.
func TestIntensityForPrefix(t *testing.T) {
	e := DefaultEnergyRates()
	cases := []struct {
		region geo.Region
		want   float64
	}{
		{geo.USEast, 379},
		{geo.USWest, 220},
		{geo.EUWest, 316},
		{geo.SAEast, 98},
		{geo.APSouth, 708},                      // must not be shadowed by ap-southeast-*
		{geo.APSE, 471},                         // ap-southeast-1
		{geo.APSE2, 660},                        // ap-southeast-2
		{geo.APNE, 462},                         // ap-northeast prefix
		{geo.Region{Code: "mars-north-1"}, 475}, // default
		{geo.Region{}, 475},                     // empty code: default
	}
	for _, c := range cases {
		if got := e.IntensityFor(c.region); got != c.want {
			t.Errorf("IntensityFor(%q) = %v, want %v", c.region.Code, got, c.want)
		}
	}
}

// TestEnergyArithmetic pins the unit conversions: watts held over time
// to kWh, bytes to transport kWh, and the two planning coefficients
// the carbon scorer descends on.
func TestEnergyArithmetic(t *testing.T) {
	e := DefaultEnergyRates()
	if got := e.ComputeKWh(substrate.T2Medium, 3600); math.Abs(got-0.011) > 1e-12 {
		t.Errorf("t2.medium hour = %v kWh, want 0.011", got)
	}
	if got := e.NetworkKWh(1e9); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("1 GB transport = %v kWh, want 0.06", got)
	}
	if got, want := e.WANKgCO2PerGB(geo.USEast), 0.06*379/1000; math.Abs(got-want) > 1e-12 {
		t.Errorf("WAN kgCO2/GB from us-east = %v, want %v", got, want)
	}
	// The per-second compute coefficient integrated over an hour must
	// agree with the kWh route through the same intensity.
	perSec := e.ComputeKgCO2PerSec(substrate.T2Medium.Watts, geo.SAEast)
	viaKWh := e.ComputeKWh(substrate.T2Medium, 3600) * e.IntensityFor(geo.SAEast) / 1000
	if math.Abs(perSec*3600-viaKWh) > 1e-12 {
		t.Errorf("coefficient route %v != kWh route %v", perSec*3600, viaKWh)
	}
	// Carbon heterogeneity is the gradient the scorer exploits: the
	// hydro-heavy grid must beat the coal-heavy one by a wide margin.
	if sa, ap := e.IntensityFor(geo.SAEast), e.IntensityFor(geo.APSouth); sa*5 > ap {
		t.Errorf("sa-east (%v) should be <1/5 of ap-south (%v)", sa, ap)
	}
}

// TestEnergyBreakdown checks the itemized account's arithmetic.
func TestEnergyBreakdown(t *testing.T) {
	a := EnergyBreakdown{ComputeKWh: 1, NetworkKWh: 2, ComputeKgCO2: 3, NetworkKgCO2: 4}
	b := EnergyBreakdown{ComputeKWh: 10, NetworkKWh: 20, ComputeKgCO2: 30, NetworkKgCO2: 40}
	sum := a.Add(b)
	if sum.KWh() != 33 {
		t.Errorf("KWh = %v, want 33", sum.KWh())
	}
	if sum.KgCO2() != 77 {
		t.Errorf("KgCO2 = %v, want 77", sum.KgCO2())
	}
	if got := a.Add(EnergyBreakdown{}); got != a {
		t.Errorf("zero identity: %+v != %+v", got, a)
	}
}
