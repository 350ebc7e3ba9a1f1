// Package geo models the geography of the data centers used throughout
// the WANify reproduction: region coordinates, great-circle distances,
// and wide-area round-trip-time estimation.
//
// The canonical topology is the 8-region AWS deployment of the paper's
// Figure 1: US East (N. Virginia), US West (N. California), AP South
// (Mumbai), AP Southeast (Singapore), AP Southeast 2 (Sydney), AP
// Northeast (Tokyo), EU West (Ireland) and SA East (São Paulo).
package geo

import (
	"fmt"
	"math"
	"time"
)

// Region identifies a cloud data-center region.
type Region struct {
	// Name is the human-readable region name, e.g. "US East".
	Name string
	// Code is the provider region code, e.g. "us-east-1".
	Code string
	// Provider is the cloud provider hosting the region ("aws", "gcp", ...).
	Provider string
	// Lat and Lon are the approximate geographic coordinates of the
	// region's data centers, in degrees.
	Lat, Lon float64
}

// String returns the region name.
func (r Region) String() string { return r.Name }

// The 8 AWS regions of the paper's testbed (Fig. 1), in the order used
// by every experiment. Coordinates are approximate metro locations.
var (
	USEast  = Region{Name: "US East", Code: "us-east-1", Provider: "aws", Lat: 38.95, Lon: -77.45}
	USWest  = Region{Name: "US West", Code: "us-west-1", Provider: "aws", Lat: 37.35, Lon: -121.96}
	APSouth = Region{Name: "AP South", Code: "ap-south-1", Provider: "aws", Lat: 19.08, Lon: 72.88}
	APSE    = Region{Name: "AP SE", Code: "ap-southeast-1", Provider: "aws", Lat: 1.35, Lon: 103.82}
	APSE2   = Region{Name: "AP SE-2", Code: "ap-southeast-2", Provider: "aws", Lat: -33.87, Lon: 151.21}
	APNE    = Region{Name: "AP NE", Code: "ap-northeast-1", Provider: "aws", Lat: 35.68, Lon: 139.69}
	EUWest  = Region{Name: "EU West", Code: "eu-west-1", Provider: "aws", Lat: 53.35, Lon: -6.26}
	SAEast  = Region{Name: "SA East", Code: "sa-east-1", Provider: "aws", Lat: -23.55, Lon: -46.63}
)

// Testbed returns the paper's 8-region deployment in canonical order.
func Testbed() []Region {
	return []Region{USEast, USWest, APSouth, APSE, APSE2, APNE, EUWest, SAEast}
}

// TestbedSubset returns the first n regions of the canonical testbed.
// It panics if n is out of range; the paper's experiments use n in [2, 8].
func TestbedSubset(n int) []Region {
	tb := Testbed()
	if n < 1 || n > len(tb) {
		panic(fmt.Sprintf("geo: testbed subset size %d out of range [1, %d]", n, len(tb)))
	}
	return tb[:n]
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// kmPerMile converts miles to kilometers.
const kmPerMile = 1.60934

// DistanceKm returns the great-circle (haversine) distance between two
// regions in kilometers.
func DistanceKm(a, b Region) float64 {
	if a.Code == b.Code {
		return 0
	}
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dla, dlo := la2-la1, lo2-lo1
	sla, slo := math.Sin(dla/2), math.Sin(dlo/2)
	h := sla*sla + math.Cos(la1)*math.Cos(la2)*slo*slo
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// DistanceMiles returns the great-circle distance in miles. This is the
// D_ij feature of the paper's Table 3 ("physical distance (in miles)
// between VMs at DCs i and j").
func DistanceMiles(a, b Region) float64 {
	return DistanceKm(a, b) / kmPerMile
}

// RTT estimates the wide-area round-trip time between two regions.
//
// Light in fiber travels at roughly 2/3 c (~5 µs/km one way), and real
// WAN routes are longer than great circles; routeInflation captures
// that detour factor (~1.4 for well-peered clouds). A small constant
// floor models intra-metro switching latency.
func RTT(a, b Region) time.Duration {
	const (
		usPerKmOneWay  = 5.0 // microseconds per km, in fiber
		routeInflation = 1.4
		floorMicros    = 500.0 // same-metro latency floor
	)
	d := DistanceKm(a, b)
	micros := 2*d*usPerKmOneWay*routeInflation + floorMicros
	return time.Duration(micros * float64(time.Microsecond))
}
