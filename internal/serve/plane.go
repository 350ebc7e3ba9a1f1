// Package serve is the WANify control plane: the long-running service
// that turns the repo's batch pipeline — snapshot → Random-Forest
// prediction → global optimization → per-VM agents → re-gauging
// controller — into an always-on planner jobs are submitted TO, the
// ROADMAP's planner-as-a-service refactor (and the deployment shape
// Terra argues GDA optimizers need to be usable at all).
//
// The heart is Plane: it wraps one wanify.Framework in dynamic
// multi-job mode, admits jobs through a bounded queue with per-tenant
// quotas, runs them concurrently on an open spark.JobSet over shared
// substrate state (one arbitrating runtime controller re-gauges for
// everyone), caches trained prediction models in an LRU keyed by
// snapshot fingerprint (ModelCache), and streams Graphite-plaintext
// telemetry through a pluggable Sink.
//
// Everything on the Plane runs on the SUBSTRATE clock: submissions,
// admissions, completions, telemetry epochs, and model refreshes are
// substrate events on one timeline, so a scripted load — thousands of
// submissions — replays byte-identically per seed (the golden `serve`
// experiment locks exactly that). Real-time access comes from the thin
// HTTP layer (Server + Driver): a single driver goroutine owns the
// timeline, alternately draining serialized commands from HTTP
// handlers and advancing the clock, so the deterministic core never
// sees concurrency. See DESIGN.md §9 for the architecture.
package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/workloads"
)

// Admission errors. The HTTP layer maps these onto status codes.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity and no slot is free.
	ErrQueueFull = fmt.Errorf("serve: admission queue full")
	// ErrTenantQuota rejects a submission that would push its tenant
	// past the per-tenant quota of queued+running jobs.
	ErrTenantQuota = fmt.Errorf("serve: tenant quota exceeded")
	// ErrUnknownJob reports a job id the plane has never issued.
	ErrUnknownJob = fmt.Errorf("serve: unknown job")
	// ErrNotCancelable reports a cancel of a job already finished,
	// failed, or canceled.
	ErrNotCancelable = fmt.Errorf("serve: job not cancelable")
	// ErrClosed rejects submissions after Close.
	ErrClosed = fmt.Errorf("serve: plane closed")
)

// Config configures a Plane.
type Config struct {
	// Rates prices jobs and measurement (required; the engine's table).
	Rates cost.Rates
	// Seed derives the plane's noise streams (refresh snapshots).
	Seed uint64
	// MaxRunning is how many jobs run concurrently — the dynamic
	// deployment's slot count (default 4).
	MaxRunning int
	// QueueCap bounds the admission queue (default 64).
	QueueCap int
	// TenantQuota caps one tenant's queued+running jobs (0 = no cap).
	TenantQuota int
	// Share selects fair or priority sharing across running jobs.
	Share optimize.ShareMode
	// EpochS is the telemetry emission period in simulated seconds
	// (default 15, the controller's epoch).
	EpochS float64
	// RefreshS re-fingerprints the cluster every this many simulated
	// seconds and refreshes the model through the cache (0 = off).
	// Requires Train.
	RefreshS float64
	// Train builds a model for a fingerprint on a cache miss. It must
	// be deterministic per fingerprint so cache-hit and retrain runs
	// stay byte-identical.
	Train func(fp uint64) (*predict.Model, error)
	// Cache configures the model cache. Cache.Now defaults to the
	// substrate clock.
	Cache CacheConfig
	// QuantMbps is the fingerprint bandwidth bucket (0 = 1000, coarse
	// enough that testbed regimes recur and the cache earns hits).
	QuantMbps float64
	// Sink receives telemetry (nil = discard).
	Sink Sink
}

func (c Config) withDefaults() Config {
	if c.MaxRunning == 0 {
		c.MaxRunning = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.EpochS == 0 {
		c.EpochS = 15
	}
	if c.Sink == nil {
		c.Sink = discardSink{}
	}
	if c.QuantMbps == 0 {
		// Serving wants regimes that RECUR: on the netsim testbed,
		// 1000 Mbps buckets fold the per-snapshot probe wobble into a
		// handful of recurring fingerprints (diurnal regimes), where the
		// library default of predict.DefaultQuantMbps would mint a fresh
		// fingerprint — and a cold cache — almost every refresh.
		c.QuantMbps = 1000
	}
	return c
}

// JobState is where a submitted job is in its lifecycle.
type JobState int8

// Job lifecycle states.
const (
	StateQueued JobState = iota
	StateRunning
	StateDone
	StateCanceled
	StateFailed
)

// String names the state for reports and JSON.
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateCanceled:
		return "canceled"
	default:
		return "failed"
	}
}

// JobSpec is a job submission — what POST /v1/jobs carries.
type JobSpec struct {
	// Name labels the job in statuses (default: the workload).
	Name string `json:"name,omitempty"`
	// Tenant owns the job for quota accounting (default "default").
	Tenant string `json:"tenant,omitempty"`
	// Workload is "terasort", "wordcount", or "tpcds:<query>" (82, 95,
	// 11, 78).
	Workload string `json:"workload"`
	// InputGB is the job's total input volume in GB (at least one
	// byte, and finite in bytes).
	InputGB float64 `json:"input_gb"`
	// HotDCs concentrates the input: these DCs hold HotShare of it
	// (default: uniform across the cluster).
	HotDCs []int `json:"hot_dcs,omitempty"`
	// HotShare is the input fraction on HotDCs, in [0, 1] (default 0.8
	// when HotDCs is set).
	HotShare float64 `json:"hot_share,omitempty"`
	// DCs restricts placement to these data centers (default: all).
	DCs []int `json:"dcs,omitempty"`
	// Priority weights the job's WAN share under priority sharing
	// (non-negative; default 1).
	Priority float64 `json:"priority,omitempty"`
}

// JobStatus is a job's externally visible state — what the status
// endpoints return. Times are simulated seconds.
type JobStatus struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	Tenant      string  `json:"tenant"`
	Workload    string  `json:"workload"`
	State       string  `json:"state"`
	SubmittedAt float64 `json:"submitted_at"`
	StartedAt   float64 `json:"started_at,omitempty"`
	FinishedAt  float64 `json:"finished_at,omitempty"`
	// QueueWaitS is the simulated time spent queued before admission.
	QueueWaitS float64 `json:"queue_wait_s"`
	JCTSeconds float64 `json:"jct_seconds,omitempty"`
	WANGB      float64 `json:"wan_gb,omitempty"`
	CostUSD    float64 `json:"cost_usd,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// ClusterStatus is the cluster snapshot — what GET /v1/cluster returns.
type ClusterStatus struct {
	NowS        float64    `json:"now_s"`
	DCs         int        `json:"dcs"`
	VMs         int        `json:"vms"`
	Slots       int        `json:"slots"`
	SlotsUsed   int        `json:"slots_used"`
	Queued      int        `json:"queued"`
	Running     int        `json:"running"`
	Done        int        `json:"done"`
	Canceled    int        `json:"canceled"`
	Failed      int        `json:"failed"`
	Rejected    int        `json:"rejected"`
	Replans     int        `json:"replans"`
	DriftEpochs int        `json:"drift_epochs"`
	Cache       CacheStats `json:"cache"`
	// MinBelievedMbps is the weakest pair of the current runtime-BW
	// belief — the quantity WANify exists to keep honest.
	MinBelievedMbps float64 `json:"min_believed_mbps"`
	// Gauge surfaces the failure-aware gauging state (DESIGN.md §11).
	// Omitted when the deployment runs no re-gauging controller.
	Gauge *GaugeStatus `json:"gauge,omitempty"`
}

// GaugeStatus is the failure-aware gauging section of /v1/cluster:
// the runtime controller's GaugeStats rendered for the API.
type GaugeStatus struct {
	// Degraded reports the controller is refusing to replan — the
	// breaker is open or the last snapshot was rejected. /healthz
	// mirrors this as its body.
	Degraded bool `json:"degraded"`
	// LastCoverage is the measured-pair fraction of the most recent
	// re-gauge snapshot.
	LastCoverage float64 `json:"last_coverage"`
	// RejectedSnapshots counts snapshots refused for low coverage.
	RejectedSnapshots int `json:"rejected_snapshots"`
	// Retries counts replacement probes across all snapshots.
	Retries int `json:"retries"`
	// UnmeasurablePairs is the most recent snapshot's unmeasurable
	// pair count.
	UnmeasurablePairs int `json:"unmeasurable_pairs"`
	// FusedPairs counts unmeasurable readings filled with their
	// last-known-good value.
	FusedPairs int `json:"fused_pairs"`
	// BreakerOpen and BreakerUntil describe the circuit breaker.
	BreakerOpen  bool    `json:"breaker_open"`
	BreakerUntil float64 `json:"breaker_until,omitempty"`
}

// PlaneStats are the plane's cumulative admission counters.
type PlaneStats struct {
	Submitted     int
	Admitted      int
	RejectedQueue int
	RejectedQuota int
	Canceled      int
	Done          int
	Failed        int
}

// jobRecord is the plane's internal per-job state.
type jobRecord struct {
	id     int
	spec   JobSpec
	job    spark.Job
	state  JobState
	slot   int
	setIdx int

	submittedAt float64
	startedAt   float64
	finishedAt  float64

	res    spark.RunResult
	errMsg string
}

// Plane is the control plane: one Framework, one open JobSet, a
// bounded admission queue, a model cache, and a telemetry stream, all
// driven by the substrate clock. Not safe for concurrent use — wrap it
// in a Driver for HTTP access.
type Plane struct {
	cfg   Config
	fw    *wanify.Framework
	eng   *spark.Engine
	set   *spark.JobSet
	cache *ModelCache
	rng   *simrand.Source
	info  gda.ClusterInfo

	jobs     []*jobRecord
	bySetIdx map[int]*jobRecord
	queue    []*jobRecord
	tenant   map[string]int
	free     int

	stats       PlaneStats
	epochWaits  []float64 // sim queue waits of jobs admitted this epoch
	refreshBusy bool
	cancels     []func()
	started     bool
	closed      bool
}

// New builds a Plane over a framework and engine sharing one cluster.
// Call Start before submitting.
func New(fw *wanify.Framework, eng *spark.Engine, cfg Config) (*Plane, error) {
	if fw == nil || eng == nil {
		return nil, fmt.Errorf("serve: plane needs a framework and an engine")
	}
	cfg = cfg.withDefaults()
	if cfg.RefreshS > 0 && cfg.Train == nil {
		return nil, fmt.Errorf("serve: model refresh needs a Train hook")
	}
	if cfg.Share == optimize.ShareRemaining {
		return nil, fmt.Errorf("serve: plane supports fair or priority sharing only")
	}
	sim := eng.Cluster()
	if cfg.Cache.Now == nil {
		cfg.Cache.Now = sim.Now
	}
	return &Plane{
		cfg:      cfg,
		fw:       fw,
		eng:      eng,
		cache:    NewModelCache(cfg.Cache),
		rng:      simrand.Derive(cfg.Seed, "serve"),
		info:     gda.NewClusterInfo(sim, cfg.Rates),
		bySetIdx: make(map[int]*jobRecord),
		tenant:   make(map[string]int),
		free:     cfg.MaxRunning,
	}, nil
}

// Cache exposes the model cache (telemetry, tests).
func (p *Plane) Cache() *ModelCache { return p.cache }

// Stats returns the cumulative admission counters.
func (p *Plane) Stats() PlaneStats { return p.stats }

// Start gauges the cluster, opens the dynamic deployment with every
// slot free, and arms the telemetry and model-refresh timers. It must
// run before the first Submit and outside substrate callbacks (the
// initial gauge advances the clock).
func (p *Plane) Start() error {
	if p.started {
		return fmt.Errorf("serve: plane already started")
	}
	sim := p.eng.Cluster()
	if p.cfg.RefreshS > 0 {
		// Seed the cache with the boot regime's model so the first
		// refresh epoch hits instead of training twice.
		if err := p.refreshModelSync(); err != nil {
			return err
		}
	}
	// The plane plans with uniform skew weights and no refactoring
	// vector (zero wanify.OptimizeOptions).
	_, _, _, err := p.fw.EnableJobSet(wanify.JobSetOptions{
		Jobs:    p.cfg.MaxRunning,
		Dynamic: true,
		Share:   p.cfg.Share,
	})
	if err != nil {
		return err
	}
	p.set = spark.NewOpenJobSet(p.eng)
	p.set.OnJobDone(p.jobDone)
	p.cancels = append(p.cancels, sim.Every(p.cfg.EpochS, p.telemetryEpoch))
	if p.cfg.RefreshS > 0 {
		p.cancels = append(p.cancels, sim.Every(p.cfg.RefreshS, p.refreshModel))
	}
	p.started = true
	return nil
}

// refreshModelSync is the boot-time refresh: snapshot synchronously,
// fingerprint, and install the regime's model through the cache.
func (p *Plane) refreshModelSync() error {
	feats, _ := dataset.SnapshotFeatures(p.eng.Cluster(), p.rng.Derive("refresh"))
	return p.installModel(predict.Fingerprint(feats, p.cfg.QuantMbps))
}

// refreshModel is the periodic re-fingerprint: an asynchronous snapshot
// (probes run concurrently with tenant traffic, exactly like the
// re-gauging controller's) whose features key the cache when it lands.
func (p *Plane) refreshModel(float64) {
	if p.refreshBusy || p.closed {
		return
	}
	p.refreshBusy = true
	sim := p.eng.Cluster()
	ps := measure.BeginSnapshot(sim, measure.SnapshotOptions(p.rng.Derive("refresh")))
	sim.After(ps.DurationS(), func(float64) {
		p.refreshBusy = false
		if p.closed {
			ps.Abandon()
			return
		}
		snap, stats, _ := ps.Collect()
		feats := dataset.FeaturesFromSnapshot(sim, snap, stats)
		// Install errors are not fatal mid-flight: the plane keeps
		// serving on the model it has.
		_ = p.installModel(predict.Fingerprint(feats, p.cfg.QuantMbps))
	})
}

// installModel resolves fp through the cache — training on a miss —
// and hands the winning model to the framework.
func (p *Plane) installModel(fp uint64) error {
	m, ok := p.cache.Get(fp)
	if !ok {
		var err error
		m, err = p.cfg.Train(fp)
		if err != nil {
			return fmt.Errorf("serve: training model for fingerprint %x: %w", fp, err)
		}
		p.cache.Put(fp, m)
	}
	p.fw.SetModel(m)
	return nil
}

// buildJob materializes a spec into a spark job. It rejects specs no
// job can be built from: an input that is not a finite count of at
// least one byte (below it the per-DC split runs into subnormal floats
// and stops summing to the input), a hot share outside [0, 1] (it would
// put negative bytes on the cold DCs) and a negative priority.
func buildJob(spec JobSpec, n int) (spark.Job, error) {
	bytes := spec.InputGB * 1e9
	if !(bytes >= 1) || math.IsInf(bytes, 1) {
		return spark.Job{}, fmt.Errorf("serve: job needs a finite input_gb of at least one byte, got %v", spec.InputGB)
	}
	if !(spec.HotShare >= 0 && spec.HotShare <= 1) {
		return spark.Job{}, fmt.Errorf("serve: hot_share %v outside [0,1]", spec.HotShare)
	}
	if !(spec.Priority >= 0) {
		return spark.Job{}, fmt.Errorf("serve: priority %v, want >= 0", spec.Priority)
	}
	var input []float64
	if len(spec.HotDCs) > 0 {
		share := spec.HotShare
		if share == 0 {
			share = 0.8
		}
		for _, dc := range spec.HotDCs {
			if dc < 0 || dc >= n {
				return spark.Job{}, fmt.Errorf("serve: hot DC %d out of range [0,%d)", dc, n)
			}
		}
		input = workloads.SkewedInput(n, bytes, spec.HotDCs, share)
	} else {
		input = workloads.UniformInput(n, bytes)
	}
	switch {
	case spec.Workload == "terasort":
		return workloads.TeraSort(input), nil
	case spec.Workload == "wordcount":
		return workloads.WordCount(input, 0.3*bytes), nil
	case strings.HasPrefix(spec.Workload, "tpcds:"):
		qs := strings.TrimPrefix(spec.Workload, "tpcds:")
		q, err := strconv.Atoi(strings.TrimPrefix(qs, "q"))
		if err != nil {
			return spark.Job{}, fmt.Errorf("serve: bad TPC-DS query %q", qs)
		}
		return workloads.TPCDS(q, input)
	default:
		return spark.Job{}, fmt.Errorf("serve: unknown workload %q (want terasort, wordcount, tpcds:<q>)", spec.Workload)
	}
}

// schedulerFor builds the job's placement scheduler: Tetrium over the
// belief current at admission (windows keep adapting afterward through
// the controller; placements are per-stage decisions made from the
// freshest belief the plane had when the job entered).
func (p *Plane) schedulerFor(spec JobSpec) (spark.Scheduler, error) {
	var s spark.Scheduler = gda.Tetrium{Label: "tetrium(serve)", Believed: p.fw.Predicted(), Info: p.info}
	if len(spec.DCs) == 0 {
		return s, nil
	}
	n := p.eng.Cluster().NumDCs()
	allowed := make([]bool, n)
	for _, dc := range spec.DCs {
		if dc < 0 || dc >= n {
			return nil, fmt.Errorf("serve: placement DC %d out of range [0,%d)", dc, n)
		}
		allowed[dc] = true
	}
	return gda.Masked{Inner: s, Allowed: allowed}, nil
}

// Submit admits a job or queues it, returning its immediate status.
// Rejections (ErrQueueFull, ErrTenantQuota, bad specs) leave no record.
func (p *Plane) Submit(spec JobSpec) (JobStatus, error) {
	if !p.started {
		return JobStatus{}, fmt.Errorf("serve: Submit before Start")
	}
	if p.closed {
		return JobStatus{}, ErrClosed
	}
	if err := p.set.Err(); err != nil {
		return JobStatus{}, fmt.Errorf("serve: job set failed: %w", err)
	}
	p.stats.Submitted++
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if spec.Name == "" {
		spec.Name = spec.Workload
	}
	sim := p.eng.Cluster()
	job, err := buildJob(spec, sim.NumDCs())
	if err != nil {
		return JobStatus{}, err
	}
	if p.cfg.TenantQuota > 0 && p.tenant[spec.Tenant] >= p.cfg.TenantQuota {
		p.stats.RejectedQuota++
		return JobStatus{}, fmt.Errorf("%w: tenant %q has %d jobs in flight", ErrTenantQuota, spec.Tenant, p.tenant[spec.Tenant])
	}
	if p.free == 0 && len(p.queue) >= p.cfg.QueueCap {
		p.stats.RejectedQueue++
		return JobStatus{}, fmt.Errorf("%w: %d queued", ErrQueueFull, len(p.queue))
	}
	rec := &jobRecord{
		id:          len(p.jobs) + 1,
		spec:        spec,
		job:         job,
		state:       StateQueued,
		slot:        -1,
		setIdx:      -1,
		submittedAt: sim.Now(),
	}
	p.jobs = append(p.jobs, rec)
	p.tenant[spec.Tenant]++
	if p.free > 0 {
		if err := p.admitNow(rec); err != nil {
			return JobStatus{}, err
		}
	} else {
		p.queue = append(p.queue, rec)
	}
	return p.status(rec), nil
}

// admitNow runs the admission critical path for rec: claim a slot,
// re-partition the running jobs' windows, deploy the newcomer's agents,
// and admit it into the open job set.
func (p *Plane) admitNow(rec *jobRecord) error {
	sched, err := p.schedulerFor(rec.spec)
	if err != nil {
		p.dropRecord(rec, err.Error())
		return err
	}
	prio := rec.spec.Priority
	if prio <= 0 {
		prio = 1
	}
	slot, policy, err := p.fw.AdmitJob(prio)
	if err != nil {
		p.dropRecord(rec, err.Error())
		return err
	}
	idx, err := p.set.Admit(spark.JobRun{Job: rec.job, Sched: sched, Policy: policy})
	if err != nil {
		p.fw.ReleaseJob(slot)
		p.dropRecord(rec, err.Error())
		return err
	}
	now := p.eng.Cluster().Now()
	rec.slot, rec.setIdx = slot, idx
	rec.state = StateRunning
	rec.startedAt = now
	p.bySetIdx[idx] = rec
	p.free--
	p.stats.Admitted++
	p.epochWaits = append(p.epochWaits, now-rec.submittedAt)
	return nil
}

// dropRecord fails a record that could not be admitted.
func (p *Plane) dropRecord(rec *jobRecord, msg string) {
	rec.state = StateFailed
	rec.errMsg = msg
	rec.finishedAt = p.eng.Cluster().Now()
	p.tenant[rec.spec.Tenant]--
	p.stats.Failed++
}

// jobDone is the open set's completion hook: close out the record,
// free the slot, and pump the queue — all within the substrate event
// that finished the job, so the next job's windows swap in at the same
// instant the finisher's capacity frees.
func (p *Plane) jobDone(idx int, res spark.RunResult) {
	rec := p.bySetIdx[idx]
	if rec == nil || rec.state != StateRunning {
		return
	}
	rec.state = StateDone
	rec.res = res
	rec.finishedAt = p.eng.Cluster().Now()
	p.fw.ReleaseJob(rec.slot)
	p.free++
	p.tenant[rec.spec.Tenant]--
	p.stats.Done++
	p.pump()
}

// pump admits queued jobs while slots are free.
func (p *Plane) pump() {
	for p.free > 0 && len(p.queue) > 0 {
		rec := p.queue[0]
		p.queue = p.queue[1:]
		// A failed admission (bad spec caught late) just moves on.
		_ = p.admitNow(rec)
	}
}

// Cancel stops a queued or running job.
func (p *Plane) Cancel(id int) (JobStatus, error) {
	rec, err := p.record(id)
	if err != nil {
		return JobStatus{}, err
	}
	switch rec.state {
	case StateQueued:
		for i, q := range p.queue {
			if q == rec {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				break
			}
		}
	case StateRunning:
		if err := p.set.Cancel(rec.setIdx); err != nil {
			return JobStatus{}, err
		}
		p.fw.ReleaseJob(rec.slot)
		p.free++
	default:
		return JobStatus{}, fmt.Errorf("%w: job %d is %s", ErrNotCancelable, id, rec.state)
	}
	rec.state = StateCanceled
	rec.finishedAt = p.eng.Cluster().Now()
	p.tenant[rec.spec.Tenant]--
	p.stats.Canceled++
	p.pump()
	return p.status(rec), nil
}

// record resolves a job id.
func (p *Plane) record(id int) (*jobRecord, error) {
	if id < 1 || id > len(p.jobs) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return p.jobs[id-1], nil
}

// status renders a record.
func (p *Plane) status(rec *jobRecord) JobStatus {
	st := JobStatus{
		ID:          rec.id,
		Name:        rec.spec.Name,
		Tenant:      rec.spec.Tenant,
		Workload:    rec.spec.Workload,
		State:       rec.state.String(),
		SubmittedAt: rec.submittedAt,
		StartedAt:   rec.startedAt,
		FinishedAt:  rec.finishedAt,
		Error:       rec.errMsg,
	}
	if rec.state != StateQueued {
		st.QueueWaitS = rec.startedAt - rec.submittedAt
	}
	if rec.state == StateDone {
		st.JCTSeconds = rec.res.JCTSeconds
		st.WANGB = rec.res.WANBytes / 1e9
		st.CostUSD = rec.res.Cost.Total()
	}
	return st
}

// Status returns one job's status.
func (p *Plane) Status(id int) (JobStatus, error) {
	rec, err := p.record(id)
	if err != nil {
		return JobStatus{}, err
	}
	return p.status(rec), nil
}

// Jobs returns every recorded job's status, in submission order.
func (p *Plane) Jobs() []JobStatus {
	out := make([]JobStatus, len(p.jobs))
	for i, rec := range p.jobs {
		out[i] = p.status(rec)
	}
	return out
}

// Cluster returns the cluster snapshot.
func (p *Plane) Cluster() ClusterStatus {
	sim := p.eng.Cluster()
	used, total := p.fw.DynamicSlots()
	st := ClusterStatus{
		NowS:      sim.Now(),
		DCs:       sim.NumDCs(),
		VMs:       sim.NumVMs(),
		Slots:     total,
		SlotsUsed: used,
		Queued:    len(p.queue),
		Running:   p.cfg.MaxRunning - p.free,
		Done:      p.stats.Done,
		Canceled:  p.stats.Canceled,
		Failed:    p.stats.Failed,
		Rejected:  p.stats.RejectedQueue + p.stats.RejectedQuota,
		Cache:     p.cache.Stats(),
	}
	if c := p.fw.Controller(); c != nil {
		st.Replans = c.Replans()
		st.DriftEpochs = c.DriftEpochs()
		g := c.Gauge()
		st.Gauge = &GaugeStatus{
			Degraded:          g.Degraded,
			LastCoverage:      g.LastCoverage,
			RejectedSnapshots: g.RejectedSnapshots,
			Retries:           g.Retries,
			UnmeasurablePairs: g.UnmeasurablePairs,
			FusedPairs:        g.FusedPairs,
			BreakerOpen:       g.BreakerOpen,
			BreakerUntil:      g.BreakerUntil,
		}
	}
	if pred := p.fw.Predicted(); pred != nil {
		st.MinBelievedMbps = pred.MinOffDiagonal()
	}
	return st
}

// telemetryEpoch emits the plane's Graphite lines for one epoch; see
// DESIGN.md §9 for the name schema.
func (p *Plane) telemetryEpoch(now float64) {
	ts := int64(now)
	emit := func(name string, v float64) {
		p.cfg.Sink.Emit(Line{Name: name, Value: v, TS: ts})
	}
	emit("wanify.serve.queue.depth", float64(len(p.queue)))
	emit("wanify.serve.jobs.running", float64(p.cfg.MaxRunning-p.free))
	emit("wanify.serve.jobs.done", float64(p.stats.Done))
	emit("wanify.serve.jobs.canceled", float64(p.stats.Canceled))
	emit("wanify.serve.jobs.rejected", float64(p.stats.RejectedQueue+p.stats.RejectedQuota))
	wait := 0.0
	for _, w := range p.epochWaits {
		wait += w
	}
	if len(p.epochWaits) > 0 {
		wait /= float64(len(p.epochWaits))
	}
	emit("wanify.serve.admit.wait_s", wait)
	p.epochWaits = p.epochWaits[:0]
	cs := p.cache.Stats()
	emit("wanify.serve.cache.hits", float64(cs.Hits))
	emit("wanify.serve.cache.misses", float64(cs.Misses))
	emit("wanify.serve.cache.evictions", float64(cs.Evictions))
	if c := p.fw.Controller(); c != nil {
		emit("wanify.serve.replans", float64(c.Replans()))
		emit("wanify.serve.drift_epochs", float64(c.DriftEpochs()))
		g := c.Gauge()
		b2f := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		emit("wanify.serve.gauge.degraded", b2f(g.Degraded))
		emit("wanify.serve.gauge.coverage", g.LastCoverage)
		emit("wanify.serve.gauge.rejected", float64(g.RejectedSnapshots))
		emit("wanify.serve.gauge.breaker_open", b2f(g.BreakerOpen))
		emit("wanify.serve.gauge.retries", float64(g.Retries))
		emit("wanify.serve.gauge.unmeasurable", float64(g.UnmeasurablePairs))
		if live := c.Live(); live != nil {
			for i := 0; i < live.N(); i++ {
				for j := 0; j < live.N(); j++ {
					if i != j && live[i][j] > 0 {
						emit(fmt.Sprintf("wanify.serve.pair.%d.%d.mbps", i, j), live[i][j])
					}
				}
			}
		}
	}
}

// Degraded reports whether the re-gauging controller is refusing to
// replan (always false without a controller). /healthz
// answers "degraded" while this holds.
func (p *Plane) Degraded() bool {
	if c := p.fw.Controller(); c != nil {
		return c.Degraded()
	}
	return false
}

// Idle reports whether nothing is queued or running.
func (p *Plane) Idle() bool {
	return len(p.queue) == 0 && p.free == p.cfg.MaxRunning
}

// Step advances the substrate clock by tickS and surfaces a failed job
// set.
func (p *Plane) Step(tickS float64) error {
	p.eng.Cluster().RunFor(tickS)
	return p.set.Err()
}

// DriveUntilIdle advances the clock in tickS steps until the plane is
// idle or maxS simulated seconds have elapsed — the batch driver's
// drain loop (the HTTP Driver has its own).
func (p *Plane) DriveUntilIdle(tickS, maxS float64) error {
	deadline := p.eng.Cluster().Now() + maxS
	for !p.Idle() {
		if err := p.Step(tickS); err != nil {
			return err
		}
		if p.eng.Cluster().Now() > deadline {
			return fmt.Errorf("serve: plane not idle after %.0fs (queued=%d running=%d)",
				maxS, len(p.queue), p.cfg.MaxRunning-p.free)
		}
	}
	return nil
}

// Close stops accepting submissions and disarms the plane's timers.
// Running jobs are left to the caller: drain first (DriveUntilIdle) or
// cancel them for an immediate teardown.
func (p *Plane) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, cancel := range p.cancels {
		cancel()
	}
	p.cancels = nil
}
