package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServerEndToEnd drives the full HTTP surface — submit, list,
// status, cancel, cluster, metrics, health — against a live Driver
// loop, the same deployment shape cmd/wanify-serve runs.
func TestServerEndToEnd(t *testing.T) {
	p, sink := newTestPlane(t, 31, func(c *Config) { c.MaxRunning = 1 })
	d := NewDriver(p)
	d.TickS = 1
	d.Speed = 2000 // faster-than-life clock so the test drains quickly
	go d.Run()
	defer d.Close()

	ts := httptest.NewServer(NewServer(p, d, sink))
	defer ts.Close()

	postJob := func(spec JobSpec) (JobStatus, *http.Response) {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		return st, resp
	}

	// Health first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	// Submit two jobs: one runs, one queues.
	st1, r1 := postJob(JobSpec{Workload: "terasort", InputGB: 20, Tenant: "web"})
	if r1.StatusCode != http.StatusAccepted || st1.ID != 1 || st1.State != "running" {
		t.Fatalf("submit 1: code=%d st=%+v", r1.StatusCode, st1)
	}
	st2, r2 := postJob(JobSpec{Workload: "wordcount", InputGB: 20, Tenant: "web"})
	if r2.StatusCode != http.StatusAccepted || st2.State != "queued" {
		t.Fatalf("submit 2: code=%d st=%+v", r2.StatusCode, st2)
	}

	// A malformed spec is a 400 with a JSON error envelope.
	resp, _ = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"terasort"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-input spec: code=%d", resp.StatusCode)
	}
	var apiErr apiError
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if apiErr.Error == "" {
		t.Fatalf("400 carried no error envelope")
	}

	// Cancel the queued job over the API.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, st2.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v code=%d", err, resp.StatusCode)
	}
	var canceled JobStatus
	json.NewDecoder(resp.Body).Decode(&canceled)
	resp.Body.Close()
	if canceled.State != "canceled" {
		t.Fatalf("cancel returned state %s", canceled.State)
	}

	// Unknown id → 404; double cancel → 409.
	resp, _ = http.Get(ts.URL + "/v1/jobs/99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: code=%d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, st2.ID), nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: code=%d", resp.StatusCode)
	}
	resp.Body.Close()

	// Poll until job 1 completes on the driver's clock.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/1")
		if err != nil {
			t.Fatalf("status poll: %v", err)
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == "done" {
			if st.JCTSeconds <= 0 || st.CostUSD <= 0 {
				t.Fatalf("done job missing economics: %+v", st)
			}
			break
		}
		if st.State == "failed" {
			t.Fatalf("job failed: %q", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 1 still %s at deadline", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// List shows both records.
	resp, _ = http.Get(ts.URL + "/v1/jobs")
	var jobs []JobStatus
	json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if len(jobs) != 2 {
		t.Fatalf("list returned %d jobs, want 2", len(jobs))
	}

	// Cluster snapshot reflects the accounting.
	resp, _ = http.Get(ts.URL + "/v1/cluster")
	var cs ClusterStatus
	json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if cs.DCs == 0 || cs.VMs == 0 || cs.Slots != 1 {
		t.Fatalf("cluster shape: %+v", cs)
	}
	if cs.Done != 1 || cs.Canceled != 1 {
		t.Fatalf("cluster accounting: %+v", cs)
	}

	// /metrics serves the Graphite buffer and every line is well-formed.
	resp, _ = http.Get(ts.URL + "/metrics")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: code=%d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("metrics endpoint empty")
	}
	for _, ln := range lines {
		if !ValidLine(ln) {
			t.Fatalf("metrics served invalid line %q", ln)
		}
	}
}

// postRaw starts a server over a fresh plane, posts body to /v1/jobs
// and returns the response code and how many jobs the plane holds
// afterwards.
func postRaw(t *testing.T, body io.Reader) (code, jobs int) {
	t.Helper()
	p, sink := newTestPlane(t, 37, nil)
	d := NewDriver(p)
	go d.Run()
	defer d.Close()
	ts := httptest.NewServer(NewServer(p, d, sink))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var apiErr apiError
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && apiErr.Error == "" {
		t.Errorf("code %d carried no error envelope", resp.StatusCode)
	}
	d.Do(func() { jobs = len(p.Jobs()) })
	return resp.StatusCode, jobs
}

// TestSubmitRejectsOversizedBody: a job spec padded past
// maxJobSpecBytes is refused with 413 and submits nothing.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	body := io.MultiReader(
		strings.NewReader(`{"workload":"terasort","input_gb":20`),
		strings.NewReader(strings.Repeat(" ", maxJobSpecBytes)),
		strings.NewReader(`}`),
	)
	if code, jobs := postRaw(t, body); code != http.StatusRequestEntityTooLarge || jobs != 0 {
		t.Errorf("oversized body: code %d, %d jobs; want 413 and none", code, jobs)
	}
}

// TestSubmitRejectsTrailingData: a valid job spec followed by anything
// but whitespace — a second spec, or garbage — is refused with 400 and
// submits nothing; trailing whitespace is accepted.
func TestSubmitRejectsTrailingData(t *testing.T) {
	const spec = `{"workload":"terasort","input_gb":20}`
	for _, tail := range []string{spec, "garbage", "]"} {
		if code, jobs := postRaw(t, strings.NewReader(spec+tail)); code != http.StatusBadRequest || jobs != 0 {
			t.Errorf("spec + %q: code %d, %d jobs; want 400 and none", tail, code, jobs)
		}
	}
	if code, jobs := postRaw(t, strings.NewReader(spec+"\n")); code != http.StatusAccepted || jobs != 1 {
		t.Errorf("spec + newline: code %d, %d jobs; want 202 and one", code, jobs)
	}
}
