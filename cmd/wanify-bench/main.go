// Command wanify-bench regenerates the paper's tables and figures from
// the simulated testbed. Each experiment id corresponds to one paper
// artifact (see DESIGN.md §3), and each id expands into a family of
// scenarios across the selected backends:
//
//	wanify-bench -list
//	wanify-bench -run table1
//	wanify-bench -run all -seed 7 -seeds 5
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
// Every driver runs at its one fixed input size: the paper's for a
// paper artifact, the scenario's own for an extension (DESIGN.md §3).
// Scenario drivers run one after another in the listed order (each owns
// its private cluster; the trained prediction model is shared). Stdout
// is deterministic; per-scenario wall-clock seconds go to stderr. Timing this system is
// bench/'s job (see bench/README.md), not this command's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/wanify/wanify/internal/experiments"
	"github.com/wanify/wanify/internal/predict"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, writes the results to
// stdout and diagnostics to stderr, and returns the exit code (2 for a
// bad invocation, 1 when a scenario failed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wanify-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID    = fs.String("run", "", "experiment id to run, or 'all'")
		list     = fs.Bool("list", false, "list experiment ids")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		seeds    = fs.Int("seeds", 1, "repeat over this many consecutive seeds (the paper averages 5 runs)")
		backends = fs.String("backend", "netsim,trace", "comma-separated substrate backends: netsim | trace | trace:<name|file>")
		modelIn  = fs.String("model", "", "load a wanify-train model instead of training (gob)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *seeds < 1 {
		fmt.Fprintf(stderr, "-seeds %d: want at least 1\n", *seeds)
		return 2
	}

	if *list || *runID == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "  %s\n", id)
		}
		if *runID == "" {
			fmt.Fprintln(stdout, "\nusage: wanify-bench -run <id>|all [-seed N] [-seeds K] [-backend LIST] [-model FILE]")
		}
		return 0
	}

	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.IDs()
	} else if _, ok := experiments.Registry[*runID]; !ok {
		fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", *runID)
		return 2
	}

	var backendList []experiments.Backend
	for _, s := range strings.Split(*backends, ",") {
		b, err := experiments.ParseBackend(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 2
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
			fmt.Fprintf(stderr, "backend %s: skipping %d/%d experiments (bespoke netsim topology, or trace has fewer than 8 regions)\n",
				b, skipped, len(ids))
		}
	}
	if len(scenarios) == 0 {
		fmt.Fprintf(stderr, "no scenario supports the selected backends (%s)\n", *backends)
		return 2
	}

	var model *predict.Model
	if *modelIn != "" {
		var err error
		model, err = predict.LoadFile(*modelIn)
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "loaded prediction model from %s (%d trees); skipping training\n",
			*modelIn, model.Forest().NumTrees())
	}

	failed := 0
	for k := 0; k < *seeds; k++ {
		params := experiments.Params{Seed: *seed + uint64(k), Model: model}
		for _, r := range experiments.RunScenarios(scenarios, params) {
			if r.Err != nil {
				fmt.Fprintf(stderr, "%s (seed %d): %v\n", r.ID, r.Seed, r.Err)
				failed++
				continue
			}
			label := r.ID
			if *seeds > 1 {
				label = fmt.Sprintf("%s seed=%d", r.ID, r.Seed)
			}
			fmt.Fprintf(stdout, "=== %s ===\n%s\n", label, r.Result)
			fmt.Fprintf(stderr, "%s: %.1fs wall\n", label, r.Seconds)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
