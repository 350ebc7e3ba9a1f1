// Command gen regenerates the bundled traces in ../testdata. The files
// are checked in (golden tests depend on their exact bytes); rerun this
// only when deliberately changing the bundled scenarios:
//
//	go run ./internal/tracesim/gen
//
// Two traces are produced:
//
//   - diurnal8.json: a synthetic diurnal day over the full 8-region
//     testbed. Each pair's single-connection cap swings ±28% around its
//     geography-derived base on a 24 h cycle, phased by the pair's mean
//     longitude (links peak during their local night, when business
//     traffic is low). Samples every 10 minutes, looped.
//   - cloud4.csv: a cloud-measurement-shaped recording over 4 regions,
//     in the long form a cron'd iperf collector emits: minutely rows,
//     plateaus with small multiplicative jitter, and one transient
//     congestion episode (US East -> EU West drops to ~45% for five
//     minutes), the shape seen in public inter-region datasets.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

func main() {
	if err := os.MkdirAll("internal/tracesim/testdata", 0o755); err != nil {
		log.Fatal(err)
	}
	writeDiurnal8("internal/tracesim/testdata/diurnal8.json")
	writeCloud4("internal/tracesim/testdata/cloud4.csv")
}

// baseCaps returns the geography-derived per-connection caps for the
// given regions (the same calibration netsim uses).
func baseCaps(regions []geo.Region) [][]float64 {
	sim := netsim.NewSim(netsim.Config{
		Regions: regions,
		VMs:     uniformVMs(len(regions)),
		Frozen:  true,
	})
	return sim.PerConnCapMatrix()
}

func uniformVMs(n int) [][]substrate.VMSpec {
	vms := make([][]substrate.VMSpec, n)
	for i := range vms {
		vms[i] = []substrate.VMSpec{substrate.T2Medium}
	}
	return vms
}

func writeDiurnal8(path string) {
	regions := geo.Testbed()
	base := baseCaps(regions)
	n := len(regions)
	const (
		day   = 86400.0
		step  = 600.0
		depth = 0.28
	)
	var b strings.Builder
	b.WriteString("{\n  \"name\": \"diurnal8\",\n  \"regions\": [")
	for i, r := range regions {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q", r.Name)
	}
	fmt.Fprintf(&b, "],\n  \"loop\": true,\n  \"period_s\": %d,\n  \"samples\": [\n", int(day))
	for t := 0.0; t < day; t += step {
		fmt.Fprintf(&b, "    {\"t\": %d, \"per_conn_mbps\": [", int(t))
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("[")
			for j := 0; j < n; j++ {
				if j > 0 {
					b.WriteString(", ")
				}
				if i == j {
					b.WriteString("0")
					continue
				}
				// Local solar time at the pair's mean longitude; links
				// peak at local 03:00, trough at local 15:00.
				meanLon := (regions[i].Lon + regions[j].Lon) / 2
				local := t/day + meanLon/360
				f := 1 + depth*math.Cos(2*math.Pi*(local-3.0/24))
				fmt.Fprintf(&b, "%.1f", base[i][j]*f)
			}
			b.WriteString("]")
		}
		if t+step < day {
			b.WriteString("]},\n")
		} else {
			b.WriteString("]}\n")
		}
	}
	b.WriteString("  ]\n}\n")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, b.Len())
}

func writeCloud4(path string) {
	regions := []geo.Region{geo.USEast, geo.USWest, geo.EUWest, geo.APSE}
	base := baseCaps(regions)
	rng := simrand.Derive(4, "cloud4-trace")
	var b strings.Builder
	b.WriteString("# cloud-measurement-shaped trace: minutely iperf-style samples,\n")
	b.WriteString("# 30 min, with a congestion episode on US East -> EU West at 600-900 s.\n")
	b.WriteString("time_s,src,dst,per_conn_mbps\n")
	for t := 0.0; t <= 1800; t += 60 {
		for i := range regions {
			for j := range regions {
				if i == j {
					continue
				}
				v := base[i][j] * (1 + rng.Norm(0, 0.05))
				if i == 0 && j == 2 && t >= 600 && t < 900 {
					v *= 0.45 // transient congestion episode
				}
				fmt.Fprintf(&b, "%d,%s,%s,%.1f\n", int(t), regions[i].Name, regions[j].Name, v)
			}
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, b.Len())
}
