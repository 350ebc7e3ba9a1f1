// Package experiments contains one driver per table and figure of the
// paper's evaluation (plus the §2 motivation artifacts) and the
// extension scenarios. Every driver is deterministic for a given seed,
// returns a structured result whose String() prints the same
// rows/series the paper reports, and is exposed through Registry for
// cmd/wanify-bench. Each driver runs at one fixed input size: a paper
// driver at the paper's (100 GB TPC-DS and TeraSort on 8 DCs), an
// extension at the size its scenario was designed at.
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured numbers.
package experiments

import (
	"sort"
	"sync"

	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/predict"
)

// Params configures an experiment run.
type Params struct {
	// Seed makes the run reproducible.
	Seed uint64
	// Model is a trained prediction model to reuse across experiments;
	// nil trains one on demand (cached per seed).
	Model *predict.Model
	// Backend selects the WAN substrate (zero value = netsim). Trace
	// backends replay recorded bandwidth timeseries; see ParseBackend.
	Backend Backend
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Result is what every experiment returns: something printable.
type Result interface{ String() string }

// Runner executes one experiment.
type Runner func(p Params) (Result, error)

// Registry maps experiment ids (DESIGN.md §3) to runners.
var Registry = map[string]Runner{
	"fig1":   func(p Params) (Result, error) { return Fig1(p) },
	"table1": func(p Params) (Result, error) { return Table1(p) },
	"table2": func(p Params) (Result, error) { return Table2(p) },
	"fig2":   func(p Params) (Result, error) { return Fig2(p) },
	"table4": func(p Params) (Result, error) { return Table4(p) },
	"fig4":   func(p Params) (Result, error) { return Fig4(p) },
	"fig5":   func(p Params) (Result, error) { return Fig5(p) },
	"fig6":   func(p Params) (Result, error) { return Fig6(p) },
	"fig7":   func(p Params) (Result, error) { return Fig7(p) },
	"fig8a":  func(p Params) (Result, error) { return Fig8a(p) },
	"fig8b":  func(p Params) (Result, error) { return Fig8b(p) },
	"fig9":   func(p Params) (Result, error) { return Fig9(p) },
	"fig10":  func(p Params) (Result, error) { return Fig10(p) },
	"fig11a": func(p Params) (Result, error) { return Fig11a(p) },
	"fig11b": func(p Params) (Result, error) { return Fig11b(p) },
	"sec583": func(p Params) (Result, error) { return Sec583(p) },
}

// IDs returns the registered experiment ids in a stable order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// --- shared model cache ---

var (
	modelMu    sync.Mutex
	modelCache = map[uint64]func() (*predict.Model, error){}
)

// sharedModel returns the prediction model for p, training one if
// needed; different seeds train concurrently. Training uses the
// paper's pipeline at a reduced session count so experiments stay
// fast; accuracy is evaluated in fig11a/table4.
func sharedModel(p Params) (*predict.Model, error) {
	if p.Model != nil {
		return p.Model, nil
	}
	modelMu.Lock()
	train, ok := modelCache[p.Seed]
	if !ok {
		train = sync.OnceValues(func() (*predict.Model, error) {
			ds, _ := dataset.Generate(dataset.GenConfig{
				Sizes:        []int{3, 4, 5, 6, 7, 8},
				DrawsPerSize: 8,
				Seed:         p.Seed ^ 0xd1ce,
			})
			return predict.Train(ds, predict.TrainConfig{Forest: rf.Config{NumTrees: 60, Seed: p.Seed}})
		})
		modelCache[p.Seed] = train
	}
	modelMu.Unlock()
	return train()
}

// pct returns the relative improvement of v over base in percent
// (positive = v is lower/better).
func pct(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - v) / base * 100
}

// rates is the shared pricing table.
var rates = cost.DefaultRates()
