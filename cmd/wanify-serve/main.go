// Command wanify-serve runs the WANify control plane as a long-lived
// HTTP service: a simulated WAN cluster, one framework in dynamic
// multi-job mode, and a Plane admitting jobs through a bounded queue
// with per-tenant quotas (see internal/serve and DESIGN.md §9).
//
//	wanify-serve -addr :8080
//	wanify-serve -dcs 4 -max-running 2 -queue 16 -quota 4
//	wanify-serve -refresh 300 -graphite localhost:2003 -speed 120
//
// The re-gauging controller (-rebalance, on by default) gauges
// failure-aware: probes retry with backoff, a partial snapshot's
// unmeasurable pairs take the last value measured there, low-coverage
// snapshots are refused (degraded mode) and repeated refusals open a
// circuit breaker. The state shows in /healthz ("degraded" body, still
// 200), the gauge section of /v1/cluster, and the wanify.serve.gauge.*
// telemetry family.
//
// The substrate clock free-wheels at -speed simulated seconds per wall
// second on a dedicated driver goroutine; every request crosses onto
// that timeline, so the service stays deterministic per seed under any
// request interleaving that arrives at the same simulated instants.
//
// API (JSON; see internal/serve/http.go):
//
//	POST   /v1/jobs       submit  {"workload":"terasort","input_gb":100}
//	GET    /v1/jobs       list jobs
//	GET    /v1/jobs/{id}  job status
//	DELETE /v1/jobs/{id}  cancel
//	GET    /v1/cluster    cluster snapshot
//	GET    /metrics       Graphite plaintext telemetry buffer
//	GET    /healthz       liveness
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/serve"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		dcs        = flag.Int("dcs", 8, "data centers (testbed subset, 2-8)")
		maxRunning = flag.Int("max-running", 4, "concurrent job slots")
		queueCap   = flag.Int("queue", 64, "admission queue capacity")
		quota      = flag.Int("quota", 0, "per-tenant cap on queued+running jobs (0 = off)")
		shareS     = flag.String("share", "fair", "WAN sharing across running jobs: fair | priority")
		epochS     = flag.Float64("epoch", 15, "telemetry epoch (simulated s)")
		refreshS   = flag.Float64("refresh", 0, "model re-fingerprint period (simulated s, 0 = off)")
		quant      = flag.Float64("quant", 0, "fingerprint bandwidth bucket in Mbps (0 = serving default)")
		rebal      = flag.Bool("rebalance", true, "run the mid-job re-gauging controller")
		speed      = flag.Float64("speed", 60, "simulated seconds per wall second (<=0 free-runs)")
		graphite   = flag.String("graphite", "", "also stream telemetry to this carbon host:port")
		metricsCap = flag.Int("metrics-cap", 4096, "telemetry lines retained for /metrics")
	)
	flag.Parse()

	share, err := optimize.ParseShareMode(*shareS) // serve.New refuses remaining
	if err != nil {
		log.Fatalf("wanify-serve: %v", err)
	}
	if *dcs < 2 || *dcs > 8 {
		log.Fatalf("wanify-serve: -dcs %d out of range [2,8]", *dcs)
	}

	rates := cost.DefaultRates()
	sim := netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(*dcs), substrate.T2Medium, *seed))

	log.Printf("training boot model (seed %d)...", *seed)
	model, rep, err := wanify.QuickModel(*seed)
	if err != nil {
		log.Fatalf("wanify-serve: training boot model: %v", err)
	}
	log.Printf("boot model ready: test accuracy %.1f%%", rep.TestAccuracy*100)

	cfg := wanify.Config{
		Cluster: sim, Rates: rates, Seed: *seed,
		Agent: agent.Config{Throttle: true},
	}
	if *rebal {
		cfg.Runtime = rgauge.Config{
			Enabled: true, EpochS: 15, HysteresisEpochs: 2, CooldownS: 30,
		}
	}
	fw, err := wanify.New(cfg, model)
	if err != nil {
		log.Fatalf("wanify-serve: framework: %v", err)
	}
	sim.RunUntil(60) // warm the substrate before gauging

	metrics := &serve.MemorySink{Cap: *metricsCap}
	var sink serve.Sink = metrics
	if *graphite != "" {
		carbon := &serve.TCPSink{Addr: *graphite}
		defer carbon.Close()
		sink = serve.MultiSink(metrics, carbon)
	}

	plane, err := serve.New(fw, spark.NewEngine(sim, rates), serve.Config{
		Rates:       rates,
		Seed:        *seed,
		MaxRunning:  *maxRunning,
		QueueCap:    *queueCap,
		TenantQuota: *quota,
		Share:       share,
		EpochS:      *epochS,
		RefreshS:    *refreshS,
		QuantMbps:   *quant,
		Train: func(fp uint64) (*predict.Model, error) {
			// Deterministic per fingerprint: the regime's identity seeds
			// the forest, so a cache miss always rebuilds the same model.
			ds, _ := dataset.Generate(dataset.GenConfig{
				Sizes: []int{3, 5, 8}, DrawsPerSize: 4, Seed: *seed ^ fp,
			})
			return predict.Train(ds, predict.TrainConfig{
				Forest: rf.Config{NumTrees: 40, Seed: *seed ^ fp},
			})
		},
		Sink: sink,
	})
	if err != nil {
		log.Fatalf("wanify-serve: plane: %v", err)
	}
	if err := plane.Start(); err != nil {
		log.Fatalf("wanify-serve: start: %v", err)
	}

	driver := serve.NewDriver(plane)
	driver.Speed = *speed
	go driver.Run()

	server := &http.Server{Addr: *addr, Handler: serve.NewServer(plane, driver, metrics)}
	go func() {
		log.Printf("wanify-serve: listening on %s (%d DCs, %d slots, clock %gx)",
			*addr, *dcs, *maxRunning, *speed)
		if err := server.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("wanify-serve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Fprintln(os.Stderr)
	log.Printf("wanify-serve: shutting down")
	server.Close()
	driver.Do(plane.Close)
	driver.Close()
}
