package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// newGaugedPlane stands up a serving stack with a default re-gauging
// controller, returning the sim so tests can inject faults on its
// timeline.
func newGaugedPlane(t *testing.T, seed uint64) (*Plane, *MemorySink, *netsim.Sim) {
	t.Helper()
	rates := cost.DefaultRates()
	sim := netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, seed))
	fw, err := wanify.New(wanify.Config{
		Cluster: sim, Rates: rates, Seed: seed,
		Agent: agent.Config{Throttle: true},
		Runtime: rgauge.Config{
			Enabled: true, EpochS: 5, StaleAfterS: 15, CooldownS: 5,
		},
	}, trainTestModel(t, seed))
	if err != nil {
		t.Fatalf("framework: %v", err)
	}
	sim.RunUntil(60)
	sink := &MemorySink{}
	p, err := New(fw, spark.NewEngine(sim, rates), Config{Rates: rates, Seed: seed, MaxRunning: 2, Sink: sink})
	if err != nil {
		t.Fatalf("plane: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return p, sink, sim
}

// stepUntilDegraded advances the clock in epoch-sized steps until the
// controller reports degraded, failing the test if it never
// does.
func stepUntilDegraded(t *testing.T, p *Plane) {
	t.Helper()
	for i := 0; i < 40; i++ {
		if p.Degraded() {
			return
		}
		p.Step(5)
	}
	t.Fatal("controller never went degraded under a full partition")
}

// TestGaugeSurfaceDegradedAndRecovery walks the serve surface of a
// plane with a default controller through an outage: /healthz flips
// ok → degraded → ok (always HTTP 200), /v1/cluster carries a gauge
// section throughout, and the telemetry stream carries the
// wanify.serve.gauge.* family.
func TestGaugeSurfaceDegradedAndRecovery(t *testing.T) {
	p, sink, sim := newGaugedPlane(t, 61)
	defer p.Close()

	// Inline driver: start and immediately close so Do executes on the
	// caller, keeping the clock fully test-controlled.
	d := NewDriver(p)
	go d.Run()
	d.Close()
	srv := NewServer(p, d, sink)

	getHealthz := func() (int, string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := getHealthz(); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthy healthz = %d %q, want 200 ok", code, body)
	}
	if st := p.Cluster(); st.Gauge == nil || st.Gauge.Degraded {
		t.Fatalf("healthy cluster gauge = %+v, want present and clean", st.Gauge)
	}

	// Sever most of the cluster so every re-gauge snapshot is
	// rejected: coverage 1/6 with DCs 1 and 2 unreachable.
	now := sim.Now()
	sim.PartitionDC(1, now, now+500)
	sim.PartitionDC(2, now, now+500)
	stepUntilDegraded(t, p)

	if code, body := getHealthz(); code != http.StatusOK || body != "degraded\n" {
		t.Fatalf("degraded healthz = %d %q, want 200 degraded (liveness must not fail)", code, body)
	}
	st := p.Cluster()
	if st.Gauge == nil {
		t.Fatal("degraded cluster status has no gauge section")
	}
	if !st.Gauge.Degraded || st.Gauge.RejectedSnapshots == 0 {
		t.Errorf("degraded gauge = %+v, want Degraded with rejections", st.Gauge)
	}
	if st.Gauge.LastCoverage >= 0.6 {
		t.Errorf("degraded LastCoverage = %v, want below the threshold", st.Gauge.LastCoverage)
	}
	if st.Replans != 0 {
		t.Errorf("%d replans swapped during the outage", st.Replans)
	}

	// The JSON shape: gauge is a nested object keyed "gauge".
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatalf("cluster JSON: %v", err)
	}
	if _, ok := raw["gauge"]; !ok {
		t.Error("cluster JSON omits the gauge section on a plane with a controller")
	}

	// Heal and ride past the breaker backoff: a clean replan recovers.
	p.Step(600)
	if p.Degraded() {
		t.Error("plane still degraded long after the partition healed")
	}
	if code, body := getHealthz(); code != http.StatusOK || body != "ok\n" {
		t.Errorf("recovered healthz = %d %q, want 200 ok", code, body)
	}
	if st := p.Cluster(); st.Replans == 0 {
		t.Error("no replan landed after recovery")
	}

	// Telemetry carried the gauge family, well-formed.
	family := map[string]bool{}
	for _, l := range sink.Lines() {
		if !ValidLine(l.String()) {
			t.Fatalf("invalid telemetry line %q", l.String())
		}
		if strings.HasPrefix(l.Name, "wanify.serve.gauge.") {
			family[l.Name] = true
		}
	}
	for _, want := range []string{
		"wanify.serve.gauge.degraded",
		"wanify.serve.gauge.coverage",
		"wanify.serve.gauge.rejected",
		"wanify.serve.gauge.breaker_open",
		"wanify.serve.gauge.retries",
		"wanify.serve.gauge.unmeasurable",
	} {
		if !family[want] {
			t.Errorf("telemetry missing %s", want)
		}
	}
}

// TestNoControllerOmitsGauge: a plane whose deployment runs no
// re-gauging controller serializes no gauge key and emits no gauge
// telemetry.
func TestNoControllerOmitsGauge(t *testing.T) {
	p, sink := newTestPlane(t, 63, nil)
	defer p.Close()
	p.Step(40) // a few telemetry epochs

	st := p.Cluster()
	if st.Gauge != nil {
		t.Errorf("cluster status without a controller grew a gauge section: %+v", st.Gauge)
	}
	buf, _ := json.Marshal(st)
	if strings.Contains(string(buf), "gauge") {
		t.Errorf("cluster JSON without a controller mentions gauge: %s", buf)
	}
	for _, l := range sink.Lines() {
		if strings.HasPrefix(l.Name, "wanify.serve.gauge.") {
			t.Errorf("plane without a controller emitted %s", l.Name)
		}
	}
	if p.Degraded() {
		t.Error("plane without a controller reports degraded")
	}
}
