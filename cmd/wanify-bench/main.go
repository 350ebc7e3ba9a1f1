// Command wanify-bench regenerates the paper's tables and figures from
// the simulated testbed. Each experiment id corresponds to one paper
// artifact (see DESIGN.md §3), and each id expands into a family of
// scenarios across the selected backends:
//
//	wanify-bench -list
//	wanify-bench -run table1
//	wanify-bench -run all -scale 0.2 -seed 7
//	wanify-bench -run fig5 -backend trace:mytrace.csv  # 8+ region trace
//	wanify-bench -run all -model model.gob   # reuse a wanify-train model
//
// -backend is a comma-separated list of netsim | trace | trace:<name|file>
// (default "netsim,trace": the simulator plus the bundled diurnal
// replay). Experiments pinned to bespoke netsim topologies are skipped on
// trace backends, as is every standard driver when a trace records
// fewer than the testbed's 8 regions (smaller traces still drive
// wanify-sim, which sizes the job to the backend).
//
// Scenario drivers run one after another in the listed order (each owns
// its private cluster; the trained prediction model is shared). Stdout
// is deterministic; per-scenario wall-clock seconds go to stderr. Timing this system is
// bench/'s job (see bench/README.md), not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/wanify/wanify/internal/experiments"
	"github.com/wanify/wanify/internal/predict"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment id to run, or 'all'")
		list     = flag.Bool("list", false, "list experiment ids")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		seeds    = flag.Int("seeds", 1, "repeat over this many consecutive seeds (the paper averages 5 runs)")
		scale    = flag.Float64("scale", 1.0, "input-size scale (1.0 = paper scale)")
		backends = flag.String("backend", "netsim,trace", "comma-separated substrate backends: netsim | trace | trace:<name|file>")
		modelIn  = flag.String("model", "", "load a wanify-train model instead of training (gob)")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		if *run == "" {
			fmt.Println("\nusage: wanify-bench -run <id>|all [-seed N] [-scale F] [-backend LIST]")
		}
		return
	}

	ids := []string{*run}
	if *run == "all" {
		ids = experiments.IDs()
	} else if _, ok := experiments.Registry[*run]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *run)
		os.Exit(2)
	}
	if *seeds < 1 {
		*seeds = 1
	}

	var backendList []experiments.Backend
	for _, s := range strings.Split(*backends, ",") {
		b, err := experiments.ParseBackend(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		backendList = append(backendList, b)
	}
	scenarios := experiments.Scenarios(ids, backendList)
	for _, b := range backendList {
		supported := 0
		for _, id := range ids {
			if experiments.SupportsBackend(id, b) {
				supported++
			}
		}
		if skipped := len(ids) - supported; skipped > 0 {
			fmt.Fprintf(os.Stderr, "backend %s: skipping %d/%d experiments (bespoke netsim topology, or trace has fewer than 8 regions)\n",
				b, skipped, len(ids))
		}
	}
	if len(scenarios) == 0 {
		fmt.Fprintf(os.Stderr, "no scenario supports the selected backends (%s)\n", *backends)
		os.Exit(2)
	}

	var model *predict.Model
	if *modelIn != "" {
		var err error
		model, err = predict.LoadFile(*modelIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "loaded prediction model from %s (%d trees); skipping training\n",
			*modelIn, model.Forest().NumTrees())
	}

	failed := 0
	for k := 0; k < *seeds; k++ {
		params := experiments.Params{Seed: *seed + uint64(k), Scale: *scale, Model: model}
		for _, r := range experiments.RunScenarios(scenarios, params) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "%s (seed %d): %v\n", r.ID, r.Seed, r.Err)
				failed++
				continue
			}
			label := r.ID
			if *seeds > 1 {
				label = fmt.Sprintf("%s seed=%d", r.ID, r.Seed)
			}
			fmt.Printf("=== %s ===\n%s\n", label, r.Result)
			fmt.Fprintf(os.Stderr, "%s: %.1fs wall\n", label, r.Seconds)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
