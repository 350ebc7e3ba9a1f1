package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/wanify/wanify/internal/predict"
)

// Run is the outcome of one experiment execution, with the wall-clock
// seconds cmd/wanify-bench prints on stderr.
type Run struct {
	ID      string
	Seed    uint64
	Result  Result
	Err     error
	Seconds float64
}

// SharedModel returns the trained prediction model for p's seed,
// training (and caching) one if needed. Exposed so harnesses can train
// once up front and fan the same model out to concurrent drivers — the
// offline module is cluster-independent, as in a real deployment.
func SharedModel(p Params) (*predict.Model, error) {
	return sharedModel(p.withDefaults())
}

// RunScenarios executes the given scenarios (experiment × backend)
// across a pool of workers and returns one Run per scenario, in input
// order. Every driver is deterministic for a given seed and owns its
// private cluster, so results are identical to a sequential run
// regardless of worker count; the only shared state is the read-only
// prediction model, which is trained before the fan-out so workers
// never contend on training.
//
// workers <= 0 selects GOMAXPROCS.
func RunScenarios(scenarios []Scenario, p Params, workers int) []Run {
	p = p.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if p.Model == nil {
		// Train the shared model once; a failure surfaces per run so
		// callers see which experiments needed it.
		if m, err := sharedModel(p); err == nil {
			p.Model = m
		}
	}

	runs := make([]Run, len(scenarios))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(scenarios) {
					return
				}
				runs[i] = runOne(scenarios[i], p)
			}
		}()
	}
	wg.Wait()
	return runs
}

// runOne executes a single scenario, timing it.
func runOne(sc Scenario, p Params) Run {
	r := Run{ID: sc.Name(), Seed: p.Seed}
	runner, ok := Registry[sc.ID]
	if !ok {
		r.Err = fmt.Errorf("experiments: unknown experiment %q", sc.ID)
		return r
	}
	if !SupportsBackend(sc.ID, sc.Backend) {
		r.Err = fmt.Errorf("experiments: %s does not support backend %s", sc.ID, sc.Backend)
		return r
	}
	p.Backend = sc.Backend
	start := time.Now()
	r.Result, r.Err = runner(p)
	r.Seconds = time.Since(start).Seconds()
	return r
}
