package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment outputs")

// goldenSeeds is how many seeds every driver is locked at on netsim;
// the trace-capable drivers are locked at seed 1 on diurnal8 too.
const goldenSeeds = 3

// runKey names one run of a registered driver: its id, seed and
// backend (Backend.String).
type runKey struct {
	id      string
	seed    uint64
	backend string
}

// memoRun is one run's result, computed the first time it is read.
type memoRun struct {
	once sync.Once
	res  Result
	err  error
}

var (
	runsMu sync.Mutex
	runs   = map[runKey]*memoRun{}
	// driverRuns counts executions of each registered driver; TestMain
	// fails the binary when any run executed twice.
	driverRuns = map[runKey]int{}
)

// TestMain wraps every registered driver to count its executions by
// (id, seed, backend). Every test reads drivers through runOf, so the
// goldens, the ledger and the contract tests share one run each; a
// test that runs a driver a second time fails the package.
func TestMain(m *testing.M) {
	for id, run := range Registry {
		Registry[id] = func(p Params) (Result, error) {
			k := runKey{id, p.withDefaults().Seed, p.Backend.String()}
			runsMu.Lock()
			driverRuns[k]++
			runsMu.Unlock()
			return run(p)
		}
	}
	code := m.Run()
	for k, n := range driverRuns {
		if n > 1 {
			fmt.Fprintf(os.Stderr, "%s at seed %d on %s ran %d times: read it through runOf\n", k.id, k.seed, k.backend, n)
			code = 1
		}
	}
	os.Exit(code)
}

// runOf returns driver id's result at seed on backend b, running it
// the first time any test asks for it.
func runOf(t testing.TB, id string, seed uint64, b Backend) Result {
	t.Helper()
	k := runKey{id, seed, b.String()}
	runsMu.Lock()
	m := runs[k]
	if m == nil {
		m = new(memoRun)
		runs[k] = m
	}
	runsMu.Unlock()
	m.once.Do(func() { m.res, m.err = Registry[id](Params{Seed: seed, Backend: b}) })
	if m.err != nil {
		t.Fatalf("%s (seed %d, %s): %v", id, seed, b, m.err)
	}
	return m.res
}

// result is runOf on netsim, typed as the driver's result.
func result[R Result](t testing.TB, id string, seed uint64) R {
	t.Helper()
	return runOf(t, id, seed, Backend{}).(R)
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
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
		dumpGoldenDiff(t, dir, filepath.Base(file), got, string(want))
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

// TestGolden locks the rendered output of every registered driver at
// seeds 1–3 on netsim, and of every trace-capable driver at seed 1 on
// the bundled diurnal8 replay, each in testdata/golden/<id>[_<trace>]_seed<N>.txt.
// Its subtests run in parallel and fill the run cache the ledger and
// contract tests read. A file no run writes is an error. Regenerate
// deliberately with `go test -run '^TestGolden$' -update`.
func TestGolden(t *testing.T) {
	diurnal8, err := ParseBackend("trace:diurnal8")
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	lock := func(id string, seed uint64, b Backend) {
		name := id
		if b.Trace != nil {
			name += "_" + b.Trace.Name
		}
		name = fmt.Sprintf("%s_seed%d", name, seed)
		written[name+".txt"] = true
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := runOf(t, id, seed, b)
			checkGolden(t, filepath.Join("golden", name+".txt"),
				fmt.Sprintf("=== %s ===\n%s\n", Scenario{ID: id, Backend: b}.Name(), res))
		})
	}
	for _, id := range IDs() {
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			lock(id, seed, Backend{})
		}
		if SupportsBackend(id, diurnal8) {
			lock(id, 1, diurnal8)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !written[filepath.Base(f)] {
			t.Errorf("%s locks no run of a registered driver: delete it", f)
		}
	}
}
