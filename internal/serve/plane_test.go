package serve

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/predict"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// newTestPlane stands up a small serving stack — netsim testbed,
// framework, engine, plane — started and ready for submissions.
func newTestPlane(t *testing.T, seed uint64, mut func(*Config)) (*Plane, *MemorySink) {
	t.Helper()
	rates := cost.DefaultRates()
	sim := netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, seed))
	fw, err := wanify.New(wanify.Config{
		Cluster: sim, Rates: rates, Seed: seed,
		Agent: agent.Config{Throttle: true},
	}, trainTestModel(t, seed))
	if err != nil {
		t.Fatalf("framework: %v", err)
	}
	sim.RunUntil(60)
	sink := &MemorySink{}
	cfg := Config{Rates: rates, Seed: seed, MaxRunning: 2, Sink: sink}
	if mut != nil {
		mut(&cfg)
	}
	p, err := New(fw, spark.NewEngine(sim, rates), cfg)
	if err != nil {
		t.Fatalf("plane: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return p, sink
}

// TestNewRejectsBadEpoch: a telemetry epoch that is not a positive
// finite number of seconds is refused at construction; Start would
// otherwise schedule a timer that re-fires at one instant forever.
func TestNewRejectsBadEpoch(t *testing.T) {
	rates := cost.DefaultRates()
	sim := netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(3), substrate.T2Medium, 3))
	fw, err := wanify.New(wanify.Config{Cluster: sim, Rates: rates, Seed: 3}, trainTestModel(t, 3))
	if err != nil {
		t.Fatalf("framework: %v", err)
	}
	for _, epoch := range []float64{-1, -1e-9, math.NaN(), math.Inf(1)} {
		if _, err := New(fw, spark.NewEngine(sim, rates), Config{Rates: rates, EpochS: epoch}); err == nil {
			t.Errorf("EpochS %v accepted", epoch)
		}
	}
}

func TestPlaneLifecycle(t *testing.T) {
	p, sink := newTestPlane(t, 11, func(c *Config) {
		c.RefreshS = 300
		c.Train = func(fp uint64) (*predict.Model, error) { return trainTestModel(t, fp), nil }
	})
	st, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 0.5, Tenant: "alpha"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != "running" || st.ID != 1 {
		t.Fatalf("first submit should run immediately, got %+v", st)
	}
	if _, err := p.Submit(JobSpec{Workload: "tpcds:q78", InputGB: 0.3}); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := p.Submit(JobSpec{Workload: "wordcount", InputGB: 0.2}); err != nil {
		t.Fatalf("submit 3: %v", err) // queues: both slots busy
	}
	if got, _ := p.Status(3); got.State != "queued" {
		t.Fatalf("third job state = %s, want queued", got.State)
	}
	if err := p.DriveUntilIdle(1, 20000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	p.Step(16) // cross at least one telemetry epoch boundary
	for id := 1; id <= 3; id++ {
		st, err := p.Status(id)
		if err != nil {
			t.Fatalf("status %d: %v", id, err)
		}
		if st.State != "done" {
			t.Fatalf("job %d finished as %s (err %q)", id, st.State, st.Error)
		}
		if st.JCTSeconds <= 0 || st.WANGB <= 0 || st.CostUSD <= 0 {
			t.Fatalf("job %d missing result economics: %+v", id, st)
		}
	}
	if got := p.Stats(); got.Submitted != 3 || got.Admitted != 3 || got.Done != 3 {
		t.Fatalf("stats = %+v", got)
	}
	// The queued job must have a positive simulated queue wait.
	st3, _ := p.Status(3)
	if st3.QueueWaitS <= 0 {
		t.Fatalf("queued job reports no queue wait: %+v", st3)
	}
	// The boot refresh populated the cache through one miss.
	if cs := p.Cache().Stats(); cs.Misses < 1 {
		t.Fatalf("boot model refresh never touched the cache: %+v", cs)
	}
	// Telemetry flowed and every line is well-formed Graphite plaintext.
	lines := sink.Lines()
	if len(lines) == 0 {
		t.Fatalf("no telemetry emitted")
	}
	for _, l := range lines {
		if !ValidLine(l.String()) {
			t.Fatalf("invalid telemetry line %q", l.String())
		}
	}
	p.Close()
	if _, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 0.1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestPlaneQueueAndQuotaRejections(t *testing.T) {
	p, _ := newTestPlane(t, 13, func(c *Config) {
		c.MaxRunning = 1
		c.QueueCap = 1
		c.TenantQuota = 2
	})
	if _, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 0.3, Tenant: "a"}); err != nil {
		t.Fatalf("submit 1: %v", err) // runs
	}
	if _, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 0.3, Tenant: "a"}); err != nil {
		t.Fatalf("submit 2: %v", err) // queues
	}
	// Tenant a now has 2 in flight — the quota. A third is rejected even
	// though nothing about the queue itself is full for other tenants.
	if _, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 0.3, Tenant: "a"}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("quota breach: %v", err)
	}
	// Tenant b hits the queue bound instead: 1 queued, cap 1.
	if _, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 0.3, Tenant: "b"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue overflow: %v", err)
	}
	st := p.Stats()
	if st.RejectedQuota != 1 || st.RejectedQueue != 1 {
		t.Fatalf("rejection counters = %+v", st)
	}
	// Rejections leave no job record.
	if got := len(p.Jobs()); got != 2 {
		t.Fatalf("rejections left records: %d jobs", got)
	}
	// Bad specs are rejected up front.
	if _, err := p.Submit(JobSpec{Workload: "mapreduce", InputGB: 1}); err == nil {
		t.Fatalf("unknown workload accepted")
	}
	if _, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 0}); err == nil {
		t.Fatalf("zero-input job accepted")
	}
	if _, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 1, DCs: []int{99}}); err == nil {
		t.Fatalf("out-of-range placement mask accepted")
	}
}

// TestPlaneRejectsHostileSpecs submits specs no job can be built from.
// Each was once accepted: a hot share above 1 or below 0 put negative
// bytes on the cold DCs and billed more WAN traffic than the input
// held, an input overflowing to +Inf bytes held its slot forever, an
// input below one byte split into subnormal floats that no longer
// summed to it, and a negative priority ran at the default. Every one
// must be refused up front and leave no job record; the bounds
// themselves are accepted.
func TestPlaneRejectsHostileSpecs(t *testing.T) {
	p, _ := newTestPlane(t, 11, nil)
	for _, tc := range []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"hot-share-above-one", JobSpec{InputGB: 1, HotDCs: []int{0}, HotShare: 5}, false},
		{"hot-share-negative", JobSpec{InputGB: 1, HotDCs: []int{0}, HotShare: -1}, false},
		{"hot-share-nan", JobSpec{InputGB: 1, HotDCs: []int{0}, HotShare: math.NaN()}, false},
		{"input-overflows-to-inf", JobSpec{InputGB: 1e300}, false},
		{"input-inf", JobSpec{InputGB: math.Inf(1)}, false},
		{"input-nan", JobSpec{InputGB: math.NaN()}, false},
		{"input-below-one-byte", JobSpec{InputGB: 5e-324, HotDCs: []int{0}}, false},
		{"priority-negative", JobSpec{InputGB: 1, Priority: -3}, false},
		{"priority-nan", JobSpec{InputGB: 1, Priority: math.NaN()}, false},
		{"hot-share-one", JobSpec{InputGB: 0.1, HotDCs: []int{0}, HotShare: 1}, true},
		{"priority-zero", JobSpec{InputGB: 0.1, Priority: 0}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Workload = "terasort"
			before := len(p.Jobs())
			st, err := p.Submit(tc.spec)
			if tc.ok {
				if err != nil {
					t.Fatalf("spec %+v refused: %v", tc.spec, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("spec %+v accepted as %+v", tc.spec, st)
			}
			if got := len(p.Jobs()); got != before {
				t.Fatalf("refused spec left a record: %d jobs, want %d", got, before)
			}
		})
	}
}

func TestPlaneCancel(t *testing.T) {
	p, _ := newTestPlane(t, 17, func(c *Config) { c.MaxRunning = 1 })
	if _, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 0.4}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, err := p.Submit(JobSpec{Workload: "wordcount", InputGB: 0.4}); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := p.Submit(JobSpec{Workload: "terasort", InputGB: 0.2}); err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	// Cancel the queued job 2: slot math must be untouched.
	if st, err := p.Cancel(2); err != nil || st.State != "canceled" {
		t.Fatalf("cancel queued: %v %+v", err, st)
	}
	// Cancel the running job 1: frees the slot, job 3 pumps in.
	if st, err := p.Cancel(1); err != nil || st.State != "canceled" {
		t.Fatalf("cancel running: %v %+v", err, st)
	}
	if st, _ := p.Status(3); st.State != "running" {
		t.Fatalf("queue did not pump after cancel: job 3 is %s", st.State)
	}
	// Double cancel and unknown ids are typed errors.
	if _, err := p.Cancel(1); !errors.Is(err, ErrNotCancelable) {
		t.Fatalf("double cancel: %v", err)
	}
	if _, err := p.Cancel(404); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown id: %v", err)
	}
	// The survivor still completes after the surrounding churn.
	if err := p.DriveUntilIdle(1, 20000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st, _ := p.Status(3); st.State != "done" {
		t.Fatalf("job 3 finished as %s (err %q)", st.State, st.Error)
	}
	if got := p.Stats(); got.Canceled != 2 || got.Done != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

// TestPlaneDeterministicReplay is the property the golden `serve`
// experiment locks at scale: the same scripted load on the same seed
// yields identical job histories and an identical telemetry stream.
func TestPlaneDeterministicReplay(t *testing.T) {
	run := func() ([]JobStatus, []Line) {
		p, sink := newTestPlane(t, 23, func(c *Config) { c.MaxRunning = 2 })
		script := []JobSpec{
			{Workload: "terasort", InputGB: 0.4, Tenant: "a"},
			{Workload: "tpcds:q95", InputGB: 0.3, Tenant: "b", Priority: 2},
			{Workload: "wordcount", InputGB: 0.5, Tenant: "a", HotDCs: []int{0}, HotShare: 0.7},
			{Workload: "terasort", InputGB: 0.2, Tenant: "b", DCs: []int{0, 1, 2}},
		}
		for i, spec := range script {
			if _, err := p.Submit(spec); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			if i == 2 {
				// Cancel job 3 before the clock moves, while it is
				// freshly admitted (or queued).
				if _, err := p.Cancel(3); err != nil {
					t.Fatalf("cancel: %v", err)
				}
			}
			p.Step(5) // stagger arrivals on the simulated clock
		}
		if err := p.DriveUntilIdle(1, 30000); err != nil {
			t.Fatalf("drain: %v", err)
		}
		p.Step(16) // collect a post-drain telemetry epoch
		return p.Jobs(), sink.Lines()
	}
	jobsA, linesA := run()
	jobsB, linesB := run()
	if !reflect.DeepEqual(jobsA, jobsB) {
		t.Fatalf("job histories diverged:\n%+v\n%+v", jobsA, jobsB)
	}
	if !reflect.DeepEqual(linesA, linesB) {
		t.Fatalf("telemetry streams diverged (%d vs %d lines)", len(linesA), len(linesB))
	}
}
