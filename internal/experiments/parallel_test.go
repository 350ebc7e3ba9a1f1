package experiments

import "testing"

// TestRunScenariosUnknownID checks error reporting for bad ids.
func TestRunScenariosUnknownID(t *testing.T) {
	runs := RunScenarios([]Scenario{{ID: "fig1"}, {ID: "nope"}}, Params{Seed: 1, Scale: 0.05})
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
