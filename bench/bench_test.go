package main

import (
	"regexp"
	"testing"
)

// testSize shrinks every workload so the whole file runs in well under
// two seconds; the code paths are the full-size ones.
var testSize = sizing{
	modelSizes: []int{3, 4}, modelDraws: 2, modelTree: 10,
	denseDCs: 6, denseGB: 2,
	sparseDCs: 18, sparseVMs: 2, sparseJobs: 3, sparseGB: 10,
	serveBase: 40, serveBurst: 45,
	regaugeGB: 100,
	simIters:  2,
	setups:    1,
}

// The decorators and the hand-built deployment must be transparent:
// traced iterations reproduce the untraced digests. And the span tree
// must account for every nanosecond: self times sum to the iteration
// spans.
func TestTracedRunIsTransparentAndSelfTimesAddUp(t *testing.T) {
	for _, w := range allWorkloads {
		iterate, err := w.setup(testSize)
		if err != nil {
			t.Fatalf("%s set-up: %v", w.name, err)
		}
		tr := newTracer()
		for i := 0; i < 2; i++ {
			plain, _, err := runIteration(iterate, i, 1, nil)
			if err != nil {
				t.Fatalf("%s untraced iteration %d: %v", w.name, i, err)
			}
			traced, _, err := runIteration(iterate, i, 1, tr)
			if err != nil {
				t.Fatalf("%s traced iteration %d: %v", w.name, i, err)
			}
			if plain.digest.h != traced.digest.h {
				t.Errorf("%s iteration %d: traced digest %016x, untraced %016x", w.name, i, traced.digest.h, plain.digest.h)
			}
			if plain.digest.h == 0 || plain.jobs == 0 || plain.costUSD <= 0 || len(plain.jcts) == 0 {
				t.Errorf("%s iteration %d produced no simulated output: %+v", w.name, i, plain)
			}
		}
		var self int64
		for _, ns := range tr.self {
			self += ns
		}
		if iter := tr.op(opIter); iter.calls != 2 || self != iter.incl {
			t.Errorf("%s: layer self times sum to %d ns, the %d iteration spans to %d ns", w.name, self, iter.calls, iter.incl)
		}
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", w.name, len(tr.stack))
		}
		if len(tr.spans) == 0 || tr.spans[0].Name != opIter || tr.spans[0].Parent != -1 {
			t.Errorf("%s: kept spans do not start with the iteration root", w.name)
		}
	}
}

// Every run prints exactly the metrics BENCHMARK.json declares for its
// kind, under names and units the contract's character sets allow.
func TestMetricsMatchDeclaration(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(decl.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, decl.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, testSize, 1, 0, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if err := res.checkDeclared(decl); err != nil {
				t.Error(err)
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("%s: metric %q unit %q outside the contract's character sets", w.name, name, m.Unit)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); v != 89 || pct != 90 {
		t.Errorf("tail of 0..99 = %g at p%g, want 89 at p90 (ten samples beyond it)", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 2 || pct != 50 {
		t.Errorf("tail of 5 samples = %g at p%g, want the median", v, pct)
	}
}
