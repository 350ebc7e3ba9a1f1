package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment outputs")

// goldenScale keeps the golden suite fast while exercising every driver
// end to end (the same reduced scale the benchmarks use).
const goldenScale = 0.1

// separateGolden lists experiments locked by their own golden files
// (TestGoldenMultijobOutputs) instead of the concatenated per-seed
// files: drivers added after the per-seed files were captured stay out
// of renderAll so the pre-existing goldens remain byte-identical.
var separateGolden = map[string]bool{
	"multijob":       true,
	"multijob-trace": true,
	"failover":       true,
	"chaos":          true,
	"fleet":          true,
	"serve":          true,
	"pareto":         true,
	"degrade":        true,
}

// ablationModelSeed1 is AblationModel at seed 1, computed once per test
// binary: the driver reads nothing of Params but the seed (Scale,
// Model and Backend leave it alone), so every test that runs it at
// seed 1 shares the one result through runDriver.
var ablationModelSeed1 = sync.OnceValues(func() (*AblationModelResult, error) {
	return AblationModel(Params{Seed: 1})
})

// runDriver runs the registered driver id at p, reading AblationModel's
// seed-1 result from ablationModelSeed1.
func runDriver(id string, p Params) (Result, error) {
	if id == "ablation-model" && p.Seed == 1 {
		return ablationModelSeed1()
	}
	return Registry[id](p)
}

// renderIDs runs the named experiments at p and concatenates their
// rendered results, each under an "=== id ===" header.
func renderIDs(t *testing.T, p Params, ids ...string) string {
	t.Helper()
	var sb strings.Builder
	for _, id := range ids {
		res, err := runDriver(id, p)
		if err != nil {
			t.Fatalf("%s (seed %d): %v", id, p.Seed, err)
		}
		fmt.Fprintf(&sb, "=== %s ===\n%s\n", id, res)
	}
	return sb.String()
}

// renderAll runs every registered experiment at the given seed and
// concatenates the rendered results in registry order.
func renderAll(t *testing.T, seed uint64) string {
	t.Helper()
	var ids []string
	for _, id := range IDs() {
		if !separateGolden[id] {
			ids = append(ids, id)
		}
	}
	return renderIDs(t, Params{Seed: seed, Scale: goldenScale}, ids...)
}

// checkGolden compares got with testdata/<file> byte for byte, or
// rewrites the file when the test runs with -update. On a mismatch it
// reports the first differing byte and dumps the got and want sides
// into $WANIFY_GOLDEN_DIFF_DIR (when set) so CI can upload them as
// workflow artifacts and a failure is debuggable without a local
// reproduction.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	if dir := os.Getenv("WANIFY_GOLDEN_DIFF_DIR"); dir != "" {
		dumpGoldenDiff(t, dir, file, got, string(want))
	}
	t.Errorf("output diverged from golden file %s;\nfirst divergence near byte %d",
		path, firstDiff(got, string(want)))
}

// dumpGoldenDiff writes got_<file> and want_<file> into dir.
func dumpGoldenDiff(t *testing.T, dir, file, got, want string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("golden-diff dir: %v", err)
		return
	}
	for _, f := range []struct{ prefix, content string }{
		{"got_", got},
		{"want_", want},
	} {
		p := filepath.Join(dir, f.prefix+file)
		if err := os.WriteFile(p, []byte(f.content), 0o644); err != nil {
			t.Logf("golden-diff dump: %v", err)
			return
		}
	}
	t.Logf("golden got/want dumped to %s for artifact upload", dir)
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestGoldenOutputs locks the rendered output of the full experiment
// suite for seeds 1-3. The files under testdata/ were captured from the
// original from-scratch allocator; the incremental allocator must
// reproduce them byte for byte (regenerate deliberately with
// `go test -run TestGoldenOutputs -update`).
func TestGoldenOutputs(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkGolden(t, fmt.Sprintf("golden_seed%d.txt", seed), renderAll(t, seed))
		})
	}
}

// TestGoldenTraceOutputs locks the trace-backend scenarios: every
// trace-capable driver runs end-to-end on the bundled diurnal8 replay
// (seed 1) and must reproduce its own golden file byte for byte — the
// backend-equivalence counterpart of TestGoldenOutputs.
func TestGoldenTraceOutputs(t *testing.T) {
	backend, err := ParseBackend("trace:diurnal8")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, id := range IDs() {
		if !SupportsBackend(id, backend) {
			continue
		}
		res, err := Registry[id](Params{Seed: 1, Scale: goldenScale, Backend: backend})
		if err != nil {
			t.Fatalf("%s on %s: %v", id, backend, err)
		}
		fmt.Fprintf(&sb, "=== %s ===\n%s\n", Scenario{ID: id, Backend: backend}.Name(), res)
	}
	checkGolden(t, "golden_trace_diurnal8_seed1.txt", sb.String())
}

// The drivers below are locked in golden files of their own (seed 1),
// keeping the per-seed files of TestGoldenOutputs untouched. Regenerate
// one deliberately with `go test -run <its test> -update`.

// TestGoldenMultijobOutputs locks the multi-job drivers on their
// respective backends (multijob on netsim, multijob-trace on the
// bundled cloud4 replay).
func TestGoldenMultijobOutputs(t *testing.T) {
	got := renderIDs(t, Params{Seed: 1, Scale: goldenScale}, "multijob", "multijob-trace")
	checkGolden(t, "golden_multijob_seed1.txt", got)
}

// TestGoldenFaultOutputs locks the fault-injection drivers (failover,
// chaos).
func TestGoldenFaultOutputs(t *testing.T) {
	got := renderIDs(t, Params{Seed: 1, Scale: goldenScale}, "failover", "chaos")
	checkGolden(t, "golden_faults_seed1.txt", got)
}

// TestGoldenFleetOutputs locks the fleet-scale driver: 100 DCs,
// staggered regional jobs, the sharded allocator decomposing the flow
// set into many bottleneck groups.
func TestGoldenFleetOutputs(t *testing.T) {
	checkGolden(t, "golden_fleet_seed1.txt", renderIDs(t, Params{Seed: 1, Scale: goldenScale}, "fleet"))
}

// TestGoldenServeOutputs locks the control-plane load test: 1100
// scripted submissions through the Plane's admission machinery, with
// queue overflow, quota rejections, cancels, model refreshes, and the
// shared re-gauging controller all on one substrate timeline.
func TestGoldenServeOutputs(t *testing.T) {
	checkGolden(t, "golden_serve_seed1.txt", renderIDs(t, Params{Seed: 1, Scale: goldenScale}, "serve"))
}

// TestGoldenParetoOutputs locks the multi-objective scheduler sweep: 13
// descent objectives (classic schedulers, single-objective scorers,
// blend weights) each placing the same TeraSort on the 8-DC testbed,
// with the JCT-vs-$-vs-kgCO2 frontier marked.
func TestGoldenParetoOutputs(t *testing.T) {
	checkGolden(t, "golden_pareto_seed1.txt", renderIDs(t, Params{Seed: 1, Scale: goldenScale}, "pareto"))
}

// TestEveryDriverGoldenLocked checks that no registered driver sits
// outside the golden files: each id heads a section of some
// testdata/golden_*.txt. An id in separateGolden must head one in a
// file of its own test (not a per-seed or trace file renderAll and
// TestGoldenTraceOutputs write); every other id must head one in each
// per-seed file.
func TestEveryDriverGoldenLocked(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden_*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	perSeed := map[string]bool{"golden_seed1.txt": true, "golden_seed2.txt": true, "golden_seed3.txt": true}
	inPerSeed, inOwn := map[string]int{}, map[string]bool{}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Base(path)
		for _, line := range strings.Split(string(b), "\n") {
			id, ok := strings.CutPrefix(line, "=== ")
			if !ok {
				continue
			}
			id = strings.TrimSuffix(id, " ===")
			switch {
			case perSeed[file]:
				inPerSeed[id]++
			case !strings.HasPrefix(file, "golden_trace_"):
				inOwn[id] = true
			}
		}
	}
	for _, id := range IDs() {
		if separateGolden[id] {
			if !inOwn[id] {
				t.Errorf("%s is in separateGolden but no golden test of its own renders it", id)
			}
			if inPerSeed[id] > 0 {
				t.Errorf("%s is in separateGolden but also in the per-seed golden files", id)
			}
		} else if inPerSeed[id] != len(perSeed) {
			t.Errorf("%s heads %d of the %d per-seed golden files", id, inPerSeed[id], len(perSeed))
		}
	}
	for id := range separateGolden {
		if Registry[id] == nil {
			t.Errorf("separateGolden lists %q, which is not registered", id)
		}
	}
}
