// Command bench is this repository's benchmark: five workloads over the
// gauge -> predict -> optimize -> deploy -> re-gauge loop. See README.md
// in this directory for why each workload is here and what each metric
// means, and BENCHMARK.json at the repository root for the declared
// names, units and regression bounds.
//
// Run it through bench/run.sh from the repository root:
//
//	bash bench/run.sh --workload dense24 --seed 1 --seconds 12 --trace 0   one run (the driver's form)
//	bash bench/run.sh -seed 1                                              every workload, untraced then traced
//	bash bench/run.sh -agree a.json b.json                                 compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// devSeed is the seed changes are developed against; a claim must also
// hold on heldOutSeed, which nobody looks at while writing a change.
const (
	devSeed     = 1
	heldOutSeed = 7919
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as the last line (empty: run the whole suite)")
		seed    = flag.Uint64("seed", devSeed, "the only input the workloads derive from")
		seconds = flag.Float64("seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		agree   = flag.Bool("agree", false, "compare two suite result files metric by metric against the bounds")
		outDir  = flag.String("out", "bench/out", "directory for trace and result files")
	)
	flag.Parse()

	decl, err := loadDeclaration()
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	switch {
	case *agree:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("usage: -agree a.json b.json"))
		}
		ok, err := agreeFiles(decl, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "":
		if err := runSuite(decl, *seed, *seconds, *outDir); err != nil {
			fail(err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, fullSize, *seed, *seconds, *traced != 0, *outDir)
		if err != nil {
			fail(err)
		}
		if err := res.checkDeclared(decl); err != nil {
			fail(err)
		}
		res.print(os.Stdout)
	}
}

// fail reports a benchmark that could not produce a correct result:
// non-zero exit, no result line.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// declaration is BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDeclaration reads BENCHMARK.json from the repository root (the
// working directory) or, when run from bench/, its parent.
func loadDeclaration() (*declaration, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found from the working directory: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// environment is recorded with every result: host numbers mean nothing
// without the core count they were measured on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentEnvironment() environment {
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}
