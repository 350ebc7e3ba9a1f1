package cost

import (
	"strings"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// EnergyRates parameterizes the energy/carbon model the same way Rates
// parameterizes dollars: compute energy is an instance's attributable
// watts held over time, WAN energy is a per-GB transport coefficient,
// and both convert to kgCO₂-eq through the grid carbon intensity of
// the region where the energy is drawn (WAN transfers are attributed
// to the sending region, mirroring egress pricing). The per-region
// intensities are the property the carbon-aware placement scorer
// exploits — shifting work toward low-carbon grids the way Kimchi
// shifts bytes toward cheap egress.
type EnergyRates struct {
	// WANKWhPerGB is the end-to-end transport energy of moving one GB
	// across the WAN (routers, amplifiers, transit), attributed to the
	// sender.
	WANKWhPerGB float64
	// DefaultGPerKWh applies to regions without an override.
	DefaultGPerKWh float64
	// GPerKWh maps region-code prefixes to grid carbon intensity in
	// gCO₂-eq per kWh; the longest matching prefix wins (exactly the
	// Rates.EgressPerGB lookup discipline).
	GPerKWh map[string]float64
}

// DefaultEnergyRates returns the intensities used across the
// reproduction: representative public grid averages, heterogeneous
// enough that carbon-aware placement has a real gradient (hydro-heavy
// São Paulo at ~1/7 of coal-heavy Mumbai).
func DefaultEnergyRates() EnergyRates {
	return EnergyRates{
		WANKWhPerGB:    0.06,
		DefaultGPerKWh: 475,
		GPerKWh: map[string]float64{
			"us-east":        379,
			"us-west":        220,
			"eu-":            316,
			"ap-south-1":     708,
			"ap-southeast-1": 471,
			"ap-southeast-2": 660,
			"ap-northeast":   462,
			"sa-":            98,
		},
	}
}

// IntensityFor returns the grid carbon intensity (gCO₂/kWh) of a
// region, by longest matching code prefix.
func (e EnergyRates) IntensityFor(r geo.Region) float64 {
	best, bestLen := e.DefaultGPerKWh, -1
	for prefix, g := range e.GPerKWh {
		if strings.HasPrefix(r.Code, prefix) && len(prefix) > bestLen {
			best, bestLen = g, len(prefix)
		}
	}
	return best
}

// ComputeKWh returns the energy of holding one instance for the given
// seconds.
func (e EnergyRates) ComputeKWh(spec substrate.VMSpec, seconds float64) float64 {
	return spec.Watts * seconds / 3.6e6
}

// NetworkKWh returns the transport energy of the given WAN bytes.
func (e EnergyRates) NetworkKWh(bytes float64) float64 {
	return bytes / 1e9 * e.WANKWhPerGB
}

// WANKgCO2PerGB is the planning coefficient the carbon scorer descends
// on: kgCO₂-eq per GB leaving src.
func (e EnergyRates) WANKgCO2PerGB(src geo.Region) float64 {
	return e.WANKWhPerGB * e.IntensityFor(src) / 1000
}

// ComputeKgCO2PerSec is the planning coefficient for compute: kgCO₂-eq
// per second of the given aggregate watts drawn in region r.
func (e EnergyRates) ComputeKgCO2PerSec(watts float64, r geo.Region) float64 {
	return watts / 3.6e6 * e.IntensityFor(r) / 1000
}

// EnergyBreakdown is an itemized energy/carbon account of a simulated
// activity — the Breakdown counterpart in kWh and kgCO₂-eq.
type EnergyBreakdown struct {
	ComputeKWh   float64
	NetworkKWh   float64
	ComputeKgCO2 float64
	NetworkKgCO2 float64
}

// KWh returns the summed energy.
func (b EnergyBreakdown) KWh() float64 { return b.ComputeKWh + b.NetworkKWh }

// KgCO2 returns the summed carbon.
func (b EnergyBreakdown) KgCO2() float64 { return b.ComputeKgCO2 + b.NetworkKgCO2 }

// Add returns the element-wise sum.
func (b EnergyBreakdown) Add(o EnergyBreakdown) EnergyBreakdown {
	return EnergyBreakdown{
		ComputeKWh:   b.ComputeKWh + o.ComputeKWh,
		NetworkKWh:   b.NetworkKWh + o.NetworkKWh,
		ComputeKgCO2: b.ComputeKgCO2 + o.ComputeKgCO2,
		NetworkKgCO2: b.NetworkKgCO2 + o.NetworkKgCO2,
	}
}
