package experiments

import (
	"fmt"
	"time"
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

// RunScenarios executes the given scenarios (experiment × backend) one
// after another and returns one Run per scenario, in input order. The
// prediction model is trained once before the first run, so every
// driver shares it; a training failure surfaces per run, so callers see
// which experiments needed it.
func RunScenarios(scenarios []Scenario, p Params) []Run {
	p = p.withDefaults()
	if p.Model == nil {
		if m, err := sharedModel(p); err == nil {
			p.Model = m
		}
	}
	runs := make([]Run, len(scenarios))
	for i, sc := range scenarios {
		runs[i] = runOne(sc, p)
	}
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
