// Geo-distributed ML with bandwidth-driven gradient quantization — the
// paper's §5.6 / Fig. 4 scenario.
//
// Eight regions train a model synchronously against a parameter server
// in US East. A quantization policy (SAGQ) picks the gradient precision
// per link from the bandwidth it believes the link has. The example
// compares all five of the paper's variants:
//
//	NoQ   — no quantization (32-bit everywhere)
//	SAGQ  — precision from static-independent iPerf bandwidths
//	SimQ  — precision from simultaneous (contended) measurements
//	PredQ — precision from WANify's predicted runtime bandwidths
//	WQ    — PredQ plus WANify's heterogeneous parallel connections
//
//	go run ./examples/ml-quantization
package main

import (
	"fmt"
	"log"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/workloads"
)

const (
	seed       = 404
	trainStart = 700.0
)

func main() {
	rates := cost.DefaultRates()
	model, _, err := wanify.QuickModel(seed)
	if err != nil {
		log.Fatal(err)
	}
	cfg := workloads.DefaultMLConfig()

	fmt.Printf("synchronous training: %d epochs, %.0f MB gradients, parameter server in %s\n\n",
		cfg.Epochs, cfg.ModelBytes/1e6, geo.USEast.Name)
	fmt.Printf("%-8s%14s%12s%14s  %s\n", "variant", "train(min)", "cost($)", "min BW(Mbps)", "bits per worker link")

	type variant struct {
		name   string
		belief string // "", "static", "simultaneous", "predicted"
		wanify bool
	}
	for _, v := range []variant{
		{"NoQ", "", false},
		{"SAGQ", "static", false},
		{"SimQ", "simultaneous", false},
		{"PredQ", "predicted", false},
		{"WQ", "predicted", true},
	} {
		sim := netsim.NewSim(netsim.UniformCluster(geo.Testbed(), substrate.T2Medium, seed))
		var believed bwmatrix.Matrix
		switch v.belief {
		case "static":
			believed, _ = measure.StaticIndependent(sim, measure.Options{DurationS: 8})
			sim.RunUntil(trainStart)
		case "simultaneous":
			sim.RunUntil(trainStart - 20)
			believed, _ = measure.StaticSimultaneous(sim, measure.StableOptions())
		case "predicted":
			fw, err := wanify.New(wanify.Config{Cluster: sim, Rates: rates, Seed: seed}, model)
			if err != nil {
				log.Fatal(err)
			}
			sim.RunUntil(trainStart - 1)
			believed, _ = fw.DetermineRuntimeBW()
		default:
			sim.RunUntil(trainStart)
		}

		policy := spark.ConnPolicy(spark.SingleConn{})
		if v.wanify {
			fw, err := wanify.New(wanify.Config{
				Cluster: sim, Rates: rates, Seed: seed,
				Agent: agent.Config{Throttle: true},
			}, model)
			if err != nil {
				log.Fatal(err)
			}
			plan := fw.Optimize(believed, wanify.OptimizeOptions{})
			fw.DeployAgents(believed, plan)
			defer fw.StopAgents()
			policy = fw.ConnPolicy()
		}

		res, err := workloads.RunQuantizedTraining(sim, rates, believed, policy, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s%14.1f%12.3f%14.0f  %v\n",
			v.name, res.TrainSeconds/60, res.Cost.Total(), res.MinLinkMbps, res.BitsPerDC)
	}

	fmt.Println("\npaper: SAGQ ~22% faster than NoQ; accurate (simultaneous/predicted)")
	fmt.Println("beliefs add 13-14.5%; WANify-enabled WQ is best with a 2x min-BW boost.")
}
