package experiments

import (
	"fmt"
	"sort"
	"strings"

	wanify "github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/predict"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/serve"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
)

// --- serve: control-plane load test ---
//
// Every other driver runs a fixed job roster; this one exercises the
// long-running control plane (internal/serve) end to end: a scripted
// open-loop arrival process submits >1000 jobs to a Plane through its
// admission machinery — bounded queue, per-tenant quotas, cancels, a
// burst that deterministically overflows the queue — while the model
// refresh loop re-fingerprints the cluster through the LRU cache and
// the shared re-gauging controller arbitrates WAN share across
// whatever happens to be running. The whole load is substrate-clock
// scripted, so the run (and its telemetry stream) is byte-reproducible
// per seed. Submit's wall-clock latency is measured from outside, by
// bench/'s serve4 workload (serve.submit_us).

func init() {
	Registry["serve"] = func(p Params) (Result, error) { return ServeLoad(p) }
}

// Load shape. Base arrivals trickle in at a sustainable rate; the
// burst packs serveBurstJobs submissions into a few simulated seconds
// mid-run to overflow the queue and trip both rejection paths.
const (
	serveDCs        = 4
	serveSlots      = 4
	serveQueueCap   = 32
	serveQuota      = 8 // per tenant, queued+running
	serveTenants    = 5
	serveBaseJobs   = 1000
	serveBurstJobs  = 100
	serveBurstAtS   = 800.0
	serveBurstGapS  = 0.05
	serveCancelEach = 50 // cancel every Nth job shortly after submit
	serveCancelLagS = 0.25
	serveRefreshS   = 120.0
	serveStartS     = 60.0
)

// ServeLoadResult summarizes a control-plane load test. Every field is
// a simulated-clock quantity, so String is byte-stable per seed.
type ServeLoadResult struct {
	Submitted     int
	Admitted      int
	Done          int
	Canceled      int
	Failed        int
	RejectedQueue int
	RejectedQuota int

	QueueWaitP50S float64
	QueueWaitP99S float64
	JCTP50S       float64
	JCTP99S       float64
	MakespanS     float64
	JobsPerMin    float64
	WANGB         float64
	CostUSD       float64

	Replans     int
	DriftEpochs int
	Cache       serve.CacheStats

	TelemetryLines int
	TelemetryValid bool
}

// String implements Result.
func (r ServeLoadResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "serve load test: %d submitted over %.0fs\n", r.Submitted, r.MakespanS)
	fmt.Fprintf(&sb, "  admitted %d  done %d  canceled %d  failed %d  rejected %d (queue %d, quota %d)\n",
		r.Admitted, r.Done, r.Canceled, r.Failed,
		r.RejectedQueue+r.RejectedQuota, r.RejectedQueue, r.RejectedQuota)
	fmt.Fprintf(&sb, "  queue wait p50 %.1fs p99 %.1fs | JCT p50 %.1fs p99 %.1fs | %.1f jobs/min\n",
		r.QueueWaitP50S, r.QueueWaitP99S, r.JCTP50S, r.JCTP99S, r.JobsPerMin)
	fmt.Fprintf(&sb, "  WAN %.1f GB  cost $%.2f  replans %d  drift epochs %d\n",
		r.WANGB, r.CostUSD, r.Replans, r.DriftEpochs)
	fmt.Fprintf(&sb, "  model cache: %d hits %d misses %d evictions\n",
		r.Cache.Hits, r.Cache.Misses, r.Cache.Evictions)
	fmt.Fprintf(&sb, "  telemetry: %d lines, all valid Graphite plaintext: %v\n",
		r.TelemetryLines, r.TelemetryValid)
	return sb.String()
}

// serveSpec deterministically shapes submission i of the script.
func serveSpec(i int, rng *simrand.Source) serve.JobSpec {
	workload := [...]string{"terasort", "wordcount", "tpcds:q78", "tpcds:q95"}[i%4]
	spec := serve.JobSpec{
		Workload: workload,
		Tenant:   fmt.Sprintf("team-%d", i%serveTenants),
		InputGB:  (2.0 + 6.0*rng.Float64()) * 0.1, // 0.2–0.8 GB
		Priority: float64(1 + i%3),
	}
	if i%7 == 0 {
		spec.HotDCs = []int{i % serveDCs}
		spec.HotShare = 0.7
	}
	if i%11 == 0 {
		spec.DCs = []int{0, 1, 2}
	}
	return spec
}

// ServeLoad runs the control-plane load test: ≥1000 scripted
// submissions against a live Plane on the netsim testbed.
func ServeLoad(p Params) (ServeLoadResult, error) {
	p = p.withDefaults()
	model, err := sharedModel(p)
	if err != nil {
		return ServeLoadResult{}, err
	}
	sim, err := testbedCluster(p, serveDCs, p.Seed)
	if err != nil {
		return ServeLoadResult{}, err
	}
	fw, err := wanify.New(wanify.Config{
		Cluster: sim, Rates: rates, Seed: p.Seed,
		Agent: agent.Config{Throttle: true},
		Runtime: rgauge.Config{
			Enabled: true, EpochS: 15, HysteresisEpochs: 2,
			CooldownS: 30, StaleAfterS: 300,
		},
	}, model)
	if err != nil {
		return ServeLoadResult{}, err
	}
	sim.RunUntil(serveStartS)

	sink := &serve.MemorySink{}
	plane, err := serve.New(fw, spark.NewEngine(sim, rates), serve.Config{
		Rates:       rates,
		Seed:        p.Seed,
		MaxRunning:  serveSlots,
		QueueCap:    serveQueueCap,
		TenantQuota: serveQuota,
		EpochS:      15,
		RefreshS:    serveRefreshS,
		Train: func(fp uint64) (*predict.Model, error) {
			// Deterministic per fingerprint, and cheap: regime models
			// retrain often enough that the paper's full forest would
			// dominate the run.
			ds, _ := dataset.Generate(dataset.GenConfig{
				Sizes: []int{3, 4}, DrawsPerSize: 2, Seed: p.Seed ^ fp,
			})
			return predict.Train(ds, predict.TrainConfig{
				Forest: rf.Config{NumTrees: 10, Seed: p.Seed ^ fp},
			})
		},
		Cache: serve.CacheConfig{Capacity: 3, TTLSeconds: 600},
		Sink:  sink,
	})
	if err != nil {
		return ServeLoadResult{}, err
	}
	if err := plane.Start(); err != nil {
		return ServeLoadResult{}, err
	}
	defer plane.Close()

	// Script the arrival process up front: base trickle plus a burst.
	rng := simrand.Derive(p.Seed, "serve-load")
	var arriveAt []float64
	t := 0.0
	for i := 0; i < serveBaseJobs; i++ {
		t += rng.Uniform(1.5, 4.5)
		arriveAt = append(arriveAt, t)
	}
	tb := serveBurstAtS
	for i := 0; i < serveBurstJobs; i++ {
		tb += serveBurstGapS
		arriveAt = append(arriveAt, tb)
	}
	lastArrival := t
	if tb > t {
		lastArrival = tb
	}

	// Schedule every submission as a substrate event. Submissions are
	// indexed in script order; job ids only exist for accepted ones.
	for i, at := range arriveAt {
		i := i
		spec := serveSpec(i, rng.Derive(fmt.Sprintf("spec-%d", i)))
		sim.After(at, func(float64) {
			st, err := plane.Submit(spec)
			if err != nil {
				return // rejections are counted by the plane
			}
			if (i+1)%serveCancelEach == 0 {
				sim.After(serveCancelLagS, func(float64) {
					// Races with completion by design; losing is fine.
					_, _ = plane.Cancel(st.ID)
				})
			}
		})
	}

	// Run through the arrival window, then drain.
	sim.RunUntil(sim.Now() + lastArrival + 1)
	if err := plane.DriveUntilIdle(5, 100000); err != nil {
		return ServeLoadResult{}, err
	}
	sim.RunFor(16) // one last telemetry epoch after the dust settles

	// Harvest.
	st := plane.Stats()
	res := ServeLoadResult{
		Submitted:     st.Submitted,
		Admitted:      st.Admitted,
		Done:          st.Done,
		Canceled:      st.Canceled,
		Failed:        st.Failed,
		RejectedQueue: st.RejectedQueue,
		RejectedQuota: st.RejectedQuota,
		Cache:         plane.Cache().Stats(),
	}
	var waits, jcts []float64
	firstSubmit, lastFinish := -1.0, 0.0
	for _, js := range plane.Jobs() {
		if firstSubmit < 0 || js.SubmittedAt < firstSubmit {
			firstSubmit = js.SubmittedAt
		}
		if js.FinishedAt > lastFinish {
			lastFinish = js.FinishedAt
		}
		if js.State == "done" || js.State == "canceled" {
			if js.StartedAt > 0 {
				waits = append(waits, js.QueueWaitS)
			}
		}
		if js.State == "done" {
			jcts = append(jcts, js.JCTSeconds)
			res.WANGB += js.WANGB
			res.CostUSD += js.CostUSD
		}
	}
	res.QueueWaitP50S, res.QueueWaitP99S = pctlF(waits, 0.50), pctlF(waits, 0.99)
	res.JCTP50S, res.JCTP99S = pctlF(jcts, 0.50), pctlF(jcts, 0.99)
	if lastFinish > firstSubmit && firstSubmit >= 0 {
		res.MakespanS = lastFinish - firstSubmit
		res.JobsPerMin = float64(res.Done) / (res.MakespanS / 60)
	}
	if c := fw.Controller(); c != nil {
		res.Replans = c.Replans()
		res.DriftEpochs = c.DriftEpochs()
	}
	lines := sink.Lines()
	res.TelemetryLines = len(lines)
	res.TelemetryValid = len(lines) > 0
	for _, l := range lines {
		if !serve.ValidLine(l.String()) {
			res.TelemetryValid = false
			break
		}
	}
	return res, nil
}

// pctlF returns the q-quantile of samples by nearest rank, 0 if empty.
func pctlF(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
