package experiments

import "testing"

// TestRunScenariosUnknownID checks error reporting for bad ids. It
// runs fig1 at a seed neither the goldens nor the ledger read, so the
// driver still runs once per seed in this package.
func TestRunScenariosUnknownID(t *testing.T) {
	runs := RunScenarios([]Scenario{{ID: "fig1"}, {ID: "nope"}}, Params{Seed: 6})
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
