package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// suiteResult is what one whole-suite run writes and -agree reads.
type suiteResult struct {
	Seed uint64      `json:"seed"`
	Env  environment `json:"env"`
	// Untraced carries the end-to-end metrics, Traced the per-layer
	// metrics, one result per workload each.
	Untraced []*result `json:"untraced"`
	Traced   []*result `json:"traced"`
}

// runSuite runs every workload untraced and then traced, each run in
// its own re-executed child process, one at a time, so that peak memory
// and heap state do not leak from one workload into the next.
func runSuite(decl *declaration, seed uint64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := suiteResult{Seed: seed, Env: currentEnvironment()}
	for _, w := range decl.Workloads {
		for _, traced := range []int{0, 1} {
			res, err := runChild(self, w.Name, seed, seconds, traced, outDir)
			if err != nil {
				return err
			}
			if traced == 0 {
				out.Untraced = append(out.Untraced, res)
			} else {
				out.Traced = append(out.Traced, res)
			}
		}
		// Across processes too: the traced run reproduces the untraced
		// run's simulated outputs.
		u, t := out.Untraced[len(out.Untraced)-1], out.Traced[len(out.Traced)-1]
		if u.SimDigest != t.SimDigest {
			return fmt.Errorf("%s: traced sim_digest %s != untraced %s", w.Name, t.SimDigest, u.SimDigest)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", seed))
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("suite seed %d: %d workloads correct, results in %s\n", seed, len(out.Untraced), path)
	return nil
}

// runChild runs one workload in a child process, echoes its report and
// parses the detail line.
func runChild(self, name string, seed uint64, seconds float64, traced int, outDir string) (*result, error) {
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(traced), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, traced, err)
	}
	var res *result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if detail, ok := strings.CutPrefix(line, "detail "); ok {
			res = &result{}
			if err := json.Unmarshal([]byte(detail), res); err != nil {
				return nil, fmt.Errorf("%s (trace %d): detail line: %w", name, traced, err)
			}
			continue
		}
		if line != "" && !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("%s (trace %d): child printed no detail line", name, traced)
	}
	return res, nil
}

// simulated end-to-end metrics come off the substrate clock: two runs
// of the same code and seed must agree on them exactly.
var simulated = map[string]bool{"jct_sim_s": true, "cost_usd": true}

// agreeFiles compares two suite results metric by metric against the
// bounds of BENCHMARK.json, printing each ratio with its base. A host
// metric whose two readings differ by more than its bound is reported
// as unresolved, never as equal; a simulated quantity, digest or count
// that differs at all is a disagreement.
func agreeFiles(decl *declaration, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d); simulated quantities are not expected to repeat\n", a.Seed, b.Seed)
	}
	ok := true
	for i, ra := range a.Untraced {
		if i >= len(b.Untraced) || b.Untraced[i].Workload != ra.Workload {
			return false, fmt.Errorf("%s and %s list different workloads", pathA, pathB)
		}
		rb := b.Untraced[i]
		for _, m := range decl.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			verdict := "agree"
			switch {
			case simulated[m.Name] && a.Seed == b.Seed:
				if va != vb {
					verdict, ok = "DIFFERS (must repeat exactly)", false
				}
			case apart(va, vb) > m.Bound:
				verdict, ok = "unresolved (readings further apart than the bound)", false
			}
			fmt.Fprintf(w, "%-10s %-18s %12.6g / %-12.6g = %.4f (bound %.3f) %s\n",
				ra.Workload, m.Name, vb, va, ratio(vb, va), m.Bound, verdict)
		}
		if a.Seed != b.Seed {
			continue
		}
		if ra.SimDigest != rb.SimDigest || ra.Failed != rb.Failed {
			ok = false
			fmt.Fprintf(w, "%-10s sim_digest %s vs %s, ops_failed %d vs %d: DIFFERS\n", ra.Workload, ra.SimDigest, rb.SimDigest, ra.Failed, rb.Failed)
		}
		for name, ma := range a.Traced[i].Metrics {
			if mb := b.Traced[i].Metrics[name]; ma.Unit == "count" && name != "bench.iters" && ma.Value != mb.Value {
				ok = false
				fmt.Fprintf(w, "%-10s %-28s %g vs %g: DIFFERS (counts must repeat exactly)\n", ra.Workload, name, ma.Value, mb.Value)
			}
		}
	}
	if ok {
		fmt.Fprintln(w, "the two result files agree within the bounds")
	}
	return ok, nil
}

// apart is how far two readings are from each other, as a share of the
// smaller: symmetric, so a time and the rate derived from it get the
// same verdict.
func apart(a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi/lo - 1
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Untraced) == 0 || len(s.Traced) != len(s.Untraced) {
		return nil, fmt.Errorf("%s: not a suite result", path)
	}
	return &s, nil
}
