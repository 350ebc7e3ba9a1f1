package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunScenariosMatchesSequential checks the harness contract: a
// parallel run renders exactly what a sequential run renders, in the
// same order, regardless of worker count.
func TestRunScenariosMatchesSequential(t *testing.T) {
	// A driver subset that covers the shared model, the simulator and
	// the analytics engine while keeping the test fast.
	scenarios := Scenarios([]string{"fig1", "table2", "fig2", "fig9", "fig11b"}, []Backend{{}})
	p := Params{Seed: 2, Scale: 0.1}

	render := func(runs []Run) string {
		var sb strings.Builder
		for _, r := range runs {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
			fmt.Fprintf(&sb, "=== %s ===\n%s\n", r.ID, r.Result)
		}
		return sb.String()
	}

	sequential := render(RunScenarios(scenarios, p, 1))
	for _, workers := range []int{3, 8} {
		if got := render(RunScenarios(scenarios, p, workers)); got != sequential {
			t.Errorf("%d-worker run diverged from sequential output", workers)
		}
	}
}

// TestRunScenariosUnknownID checks error reporting for bad ids.
func TestRunScenariosUnknownID(t *testing.T) {
	runs := RunScenarios([]Scenario{{ID: "fig1"}, {ID: "nope"}}, Params{Seed: 1, Scale: 0.05}, 2)
	if runs[0].Err != nil {
		t.Errorf("fig1 failed: %v", runs[0].Err)
	}
	if runs[1].Err == nil {
		t.Error("unknown id did not error")
	}
	if runs[1].ID != "nope" {
		t.Error("results not in input order")
	}
}
