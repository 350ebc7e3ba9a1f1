package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestFailoverRecovers locks the failover contract across seeds: the
// no-recovery baseline fails the job when a DC dies mid-run, while the
// recovery stack completes it, accounts the voided bytes and re-routes
// exactly that much.
func TestFailoverRecovers(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= goldenSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := result[*FailoverResult](t, "failover", seed)
			if len(res.Rows) != 2 {
				t.Fatalf("failover produced %d rows, want 2", len(res.Rows))
			}
			base, rec := res.Rows[0], res.Rows[1]
			if base.Completed {
				t.Errorf("no-recovery baseline survived the DC death (JCT %.1fs)", base.JCTSeconds)
			}
			if base.Err == "" {
				t.Errorf("no-recovery baseline reported no failure")
			}
			if !rec.Completed {
				t.Fatalf("recovery variant failed: %s", rec.Err)
			}
			if rec.JCTSeconds <= 0 {
				t.Errorf("recovery JCT = %.1f, want > 0", rec.JCTSeconds)
			}
			if rec.LostBytes <= 0 {
				t.Errorf("DC death voided no bytes (lost=%.0f)", rec.LostBytes)
			}
			tol := 64 + 1e-6*rec.WANBytes
			if math.Abs(rec.RecoveredB-rec.LostBytes) > tol {
				t.Errorf("recovery moved %.0f bytes for %.0f lost", rec.RecoveredB, rec.LostBytes)
			}
			if rec.Replans < 1 {
				t.Errorf("controller never replanned around the dead DC")
			}
		})
	}
}

// TestChaosSoak is the randomized-fault soak: >= 20 seeded schedules,
// each of which must terminate with every conservation invariant
// intact, and reproduce byte-identically when re-run. A failing
// schedule is dumped as JSON into $WANIFY_CHAOS_DIR so CI can upload
// it as a repro artifact.
func TestChaosSoak(t *testing.T) {
	const seeds = 24
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			out := ChaosRun(seed)
			if !out.Completed {
				dumpChaosSchedule(t, out)
				t.Fatalf("schedule did not complete: %s\nfaults: %s", out.Err, out.Schedule)
			}
			if len(out.Violations) > 0 {
				dumpChaosSchedule(t, out)
				t.Fatalf("invariants violated: %v\nfaults: %s", out.Violations, out.Schedule)
			}
			// Determinism: the same seed reproduces the identical run.
			if seed%8 == 0 {
				again := ChaosRun(seed)
				if !reflect.DeepEqual(out, again) {
					dumpChaosSchedule(t, out)
					t.Errorf("seed %d is not deterministic:\n%v\n%v", seed, out, again)
				}
			}
		})
	}
}

// dumpChaosSchedule writes the failing schedule (JSON) into
// $WANIFY_CHAOS_DIR when set, so the exact fault sequence travels with
// the CI failure.
func dumpChaosSchedule(t *testing.T, out ChaosOutcome) {
	t.Helper()
	dir := os.Getenv("WANIFY_CHAOS_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos dump dir: %v", err)
		return
	}
	blob, err := json.MarshalIndent(map[string]any{
		"schedSeed":  out.SchedSeed,
		"schedule":   out.Schedule,
		"err":        out.Err,
		"violations": out.Violations,
	}, "", "  ")
	if err != nil {
		t.Logf("chaos dump marshal: %v", err)
		return
	}
	p := filepath.Join(dir, fmt.Sprintf("chaos_seed%d.json", out.SchedSeed))
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Logf("chaos dump write: %v", err)
		return
	}
	t.Logf("failing fault schedule dumped to %s", p)
}
