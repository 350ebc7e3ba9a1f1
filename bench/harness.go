package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// SimDigest covers the simulated outputs of the first SimIters
	// iterations.
	SimDigest string `json:"sim_digest"`
	SimIters  int    `json:"sim_iters"`
	// Iters is how many iterations the measuring time allowed, with
	// their wall time, its median and the highest percentile that still
	// has ten samples beyond it.
	Iters       int         `json:"iters"`
	MeasuredS   float64     `json:"measured_s"`
	IterP50Ms   float64     `json:"iter_p50_ms"`
	IterTailMs  float64     `json:"iter_tail_ms"`
	IterTailPct float64     `json:"iter_tail_pct"`
	Env         environment `json:"env"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// phase is a run of consecutive iterations 0..n-1 under one tracer
// setting, and what they produced.
type phase struct {
	iters    []*iteration
	wallNs   []float64 // wall time of each iteration
	wall     time.Duration
	allocB   uint64
	countsAt map[string]float64 // count metrics as they stood after the sim prefix
}

// runPhase runs iterations from index 0 for at least the sim prefix and
// until budget has elapsed. afterPrefix, if set, runs once the sim
// prefix is complete.
func runPhase(w workload, iterate func(*iteration) error, seed uint64, t *tracer, budget time.Duration, afterPrefix func(p *phase)) (*phase, error) {
	p := &phase{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < w.simIters || time.Since(start) < budget; i++ {
		it, ns, err := runIteration(iterate, i, seed, t)
		if err != nil {
			return nil, fmt.Errorf("%s iteration %d (seed %d): %w", w.name, i, it.seed, err)
		}
		p.iters = append(p.iters, it)
		p.wallNs = append(p.wallNs, ns)
		if i == w.simIters-1 && afterPrefix != nil {
			afterPrefix(p)
		}
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	return p, nil
}

// runIteration runs iteration i: its inputs derive from seed+i alone.
func runIteration(iterate func(*iteration) error, i int, seed uint64, t *tracer) (*iteration, float64, error) {
	it := &iteration{idx: i, seed: seed + uint64(i), t: t}
	if t != nil {
		t.iter = int32(i)
		t.keep = i == 0
		t.begin(lBench, opIter)
	}
	t0 := time.Now()
	err := iterate(it)
	ns := float64(time.Since(t0))
	if t != nil {
		t.end()
	}
	return it, ns, err
}

// runWorkload is one run: set-up (several times), the measured phase,
// the correctness gate, the metrics.
func runWorkload(w workload, sz sizing, seed uint64, seconds float64, traced bool, outDir string) (*result, error) {
	if sz.simIters > 0 {
		w.simIters = sz.simIters
	}
	res := &result{
		Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]metric{},
		SimIters: w.simIters, Env: currentEnvironment(),
	}

	// Cold set-ups: train the shared model, build and record whatever
	// the workload keeps across iterations, warm up.
	var setupS []float64
	var iterate func(*iteration) error
	for r := 0; r < sz.setups; r++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if iterate, err = w.setup(sz); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		for i := 0; i < sz.warmups; i++ {
			if _, _, err := runIteration(iterate, i, seed, nil); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	budget := time.Duration(seconds * float64(time.Second))
	var measured *phase
	var tr *tracer
	if !traced {
		p, err := runPhase(w, iterate, seed, nil, budget, nil)
		if err != nil {
			return nil, err
		}
		measured = p
	} else {
		// A quarter of the time untraced, for the digests the traced
		// iterations must reproduce and the untraced iteration time
		// the tracing overhead is measured against.
		ref, err := runPhase(w, iterate, seed, nil, budget/4, nil)
		if err != nil {
			return nil, err
		}
		tr = newTracer()
		p, err := runPhase(w, iterate, seed, tr, budget-budget/4, func(p *phase) {
			p.countsAt = countMetrics(w, p, tr)
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(ref.iters) && i < len(p.iters); i++ {
			if ref.iters[i].digest.h != p.iters[i].digest.h {
				return nil, fmt.Errorf("%s iteration %d: traced sim_digest %016x != untraced %016x: a decorator or the hand-built deployment is not transparent",
					w.name, i, p.iters[i].digest.h, ref.iters[i].digest.h)
			}
		}
		measured = p
		res.set("bench.trace_overhead", fast(p.wallNs)/fast(ref.wallNs), "ratio")
		if err := tr.writeSpans(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}

	// Determinism gate: iteration 0 again, same seed, same digest.
	again, _, err := runIteration(iterate, 0, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s re-run of iteration 0: %w", w.name, err)
	}
	if again.digest.h != measured.iters[0].digest.h {
		return nil, fmt.Errorf("%s: iteration 0 re-run with the same seed gave sim_digest %016x, first gave %016x",
			w.name, again.digest.h, measured.iters[0].digest.h)
	}

	res.Correct = true
	res.Iters = len(measured.iters)
	res.MeasuredS = measured.wall.Seconds()
	res.IterTailMs, res.IterTailPct = tail(measured.wallNs)
	res.IterTailMs /= 1e6
	res.IterP50Ms = median(measured.wallNs) / 1e6
	var all digest
	for _, it := range measured.iters[:w.simIters] {
		all.u64(it.digest.h)
	}
	res.SimDigest = fmt.Sprintf("%016x", all.h)
	for _, it := range measured.iters {
		res.Attempted += it.attempted
		res.Failed += it.failed
	}

	if traced {
		layerMetrics(res, w, measured, tr)
	} else {
		endToEndMetrics(res, w, measured, median(setupS))
	}
	return res, nil
}

// endToEndMetrics fills in what a user of the system would see.
func endToEndMetrics(res *result, w workload, p *phase, setupS float64) {
	jobs := 0
	for _, it := range p.iters {
		jobs += it.jobs
	}
	// Simulated quantities come off the fixed prefix and so repeat
	// exactly for a seed; host quantities use every iteration.
	var jcts []float64
	costUSD := 0.0
	for _, it := range p.iters[:w.simIters] {
		jcts = append(jcts, it.jcts...)
		costUSD += it.costUSD
	}
	res.set("setup_s", setupS, "s")
	res.set("iter_p10_ms", fast(p.wallNs)/1e6, "ms")
	res.set("jobs_per_s", float64(jobs)/float64(len(p.iters))/(fast(p.wallNs)/1e9), "1/s")
	res.set("jct_sim_s", mean(jcts), "s")
	res.set("cost_usd", costUSD/float64(w.simIters), "usd")
	res.set("alloc_mb_per_iter", float64(p.allocB)/1e6/float64(len(p.iters)), "MB")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
}

// countMetrics are the per-layer counts over the sim prefix, per
// iteration. They repeat exactly for a seed.
func countMetrics(w workload, p *phase, t *tracer) map[string]float64 {
	k := float64(w.simIters)
	out := map[string]float64{}
	for l := layer(0); l < numLayers; l++ {
		out[layerNames[l]+".calls"] = float64(t.calls[l]) / k
	}
	sums := map[string]float64{}
	var sim simCounters
	simS := 0.0
	for _, it := range p.iters {
		for name, v := range it.counts {
			sums[name] += v
		}
		sim.add(it.sim)
		simS += it.simS
	}
	out["netsim.flows_started"] = float64(sim.flowsStarted) / k
	out["netsim.timers_fired"] = float64(sim.timersFired) / k
	out["netsim.rate_reads"] = float64(sim.rateReads) / k
	out["netsim.sim_s"] = simS / k
	out["netsim.peak_flows"] = float64(sim.peakFlows)
	out["netsim.peak_groups"] = float64(sim.peakGroups)
	out["measure.snapshots"] = ratio(float64(sim.snapshotProbes), float64(sim.probesPerSnapshot)) / k
	out["measure.retries"] = float64(sim.retryProbes) / k
	out["measure.probe_mb"] = sim.probeBytes / 1e6 / k
	for _, name := range []string{
		"measure.unmeasurable_pairs", "predict.pairs", "predict.trains",
		"spark.jobs_done", "spark.stages", "spark.recovery_waves",
		"runtime.drift_epochs", "runtime.replans", "runtime.rejected_snapshots",
		"serve.admitted", "serve.rejected", "serve.telemetry_lines",
	} {
		out[name] = sums[name] / k
	}
	out["gda.place_calls"] = float64(t.op(opPlace).calls) / k
	out["serve.cache_hit_ratio"] = ratio(sums["serve.cache_hits"], sums["serve.cache_lookups"])
	epochs, _ := t.opsMatching(lAgent, ".epoch")
	out["agent.epochs"] = float64(epochs) / k
	epochs, _ = t.opsMatching(lRuntime, ".epoch")
	out["runtime.epochs"] = float64(epochs) / k
	return out
}

// layerMetrics fills in the per-layer metrics of a traced phase.
func layerMetrics(res *result, w workload, p *phase, t *tracer) {
	n := float64(len(p.iters))
	for name, v := range p.countsAt {
		res.set(name, v, "count")
	}
	res.Metrics["netsim.sim_s"] = metric{p.countsAt["netsim.sim_s"], "s"}
	res.Metrics["measure.probe_mb"] = metric{p.countsAt["measure.probe_mb"], "MB"}
	res.Metrics["serve.cache_hit_ratio"] = metric{p.countsAt["serve.cache_hit_ratio"], "ratio"}
	for l := layer(0); l < numLayers; l++ {
		res.set(layerNames[l]+".self_ms", float64(t.self[l])/1e6/n, "ms")
	}
	med := func(op string) float64 { return median(t.op(op).samples) }
	res.set("netsim.newsim_ms", med(opNewSim)/1e6, "ms")
	res.set("measure.snapshot_ms", med(opSnapshot)/1e6, "ms")
	res.set("dataset.features_us", med(opFeatures)/1e3, "us")
	res.set("predict.matrix_us", med(opMatrix)/1e3, "us")
	res.set("predict.fingerprint_us", med(opFingerprint)/1e3, "us")
	res.set("predict.train_ms", median(trainTimes)/1e6, "ms")
	res.set("optimize.global_us", med(opGlobal)/1e3, "us")
	res.set("optimize.partition_us", med(opPartition)/1e3, "us")
	res.set("gda.place_us", med(opPlace)/1e3, "us")
	res.set("agent.chunk_us", med(opChunk)/1e3, "us")
	res.set("wanify.enable_ms", med(opEnable)/1e6, "ms")
	res.set("runtime.replan_ms", med(opReplan)/1e6, "ms")
	res.set("runtime.replan_probe_ms", med(opReplanProbe)/1e6, "ms")
	res.set("runtime.replan_plan_us", med(opReplanPlan)/1e3, "us")
	_, self := t.opsMatching(lAgent, ".epoch")
	res.set("agent.epoch_self_ms", float64(self)/1e6/n, "ms")
	_, self = t.opsMatching(lRuntime, ".epoch")
	res.set("runtime.epoch_self_ms", float64(self)/1e6/n, "ms")
	_, self = t.opsMatching(lServe, "telemetryEpoch")
	res.set("serve.telemetry_self_ms", float64(self)/1e6/n, "ms")
	_, self = t.opsMatching(lServe, "refreshModel")
	res.set("serve.refresh_self_ms", float64(self)/1e6/n, "ms")
	var submit []float64
	for _, it := range p.iters {
		submit = append(submit, it.submitNs...)
	}
	res.set("serve.submit_us", median(submit)/1e3, "us")
	res.set("serve.submit_tail_us", quantile(submit, 0.99)/1e3, "us")

	jobs, simS := 0, 0.0
	for _, it := range p.iters {
		jobs += it.jobs
		simS += it.simS
	}
	res.set("bench.iters", n, "count")
	res.set("bench.iter_p10_ms", fast(p.wallNs)/1e6, "ms")
	res.set("bench.iter_p50_ms", res.IterP50Ms, "ms")
	res.set("bench.jobs_per_s", float64(jobs)/p.wall.Seconds(), "1/s")
	res.set("bench.iter_tail_ms", res.IterTailMs, "ms")
	res.set("bench.iter_tail_pct", res.IterTailPct, "%")
	res.set("bench.sim_s_per_s", simS/p.wall.Seconds(), "sim-s/s")
	res.set("bench.plans_per_s", float64(t.op(opGlobal).calls)/p.wall.Seconds(), "1/s")
	iter := t.op(opIter)
	res.set("bench.attributed_pct", 100*(1-ratio(float64(t.self[lBench]), float64(iter.incl))), "%")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fast is the first decile: the host-time statistic of the end-to-end
// metrics. The sandboxes this runs on are shared two-core guests that
// slow down for minutes at a time; interference only ever adds time, so
// the fast end of the distribution stays put while the median moves
// (README.md, "Host time").
func fast(xs []float64) float64 { return quantile(xs, 0.1) }

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// quantile is the linear-interpolation quantile, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, and that percentile; with fewer than twenty
// samples that is the median.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// checkDeclared verifies the result carries exactly the metrics
// BENCHMARK.json declares for its kind of run, with the declared units.
func (r *result) checkDeclared(d *declaration) error {
	want := d.EndToEnd
	if r.Traced {
		want = d.PerLayer
	}
	if len(want) != len(r.Metrics) {
		return fmt.Errorf("%s: %d metrics produced, BENCHMARK.json declares %d", r.Workload, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: declared metric %q was not produced", r.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("%s: metric %q has unit %q, declared %q", r.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}

// print writes every metric by name with its unit, the run's detail as
// one JSON line, and the driver's result object as the last line.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d traced %v: %d iterations in %.2f s on %d cores (GOMAXPROCS %d, %s)\n",
		r.Workload, r.Seed, r.Traced, r.Iters, r.MeasuredS, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion)
	fmt.Fprintf(w, "iteration time: median %.3f ms, p%.1f = %.3f ms\n", r.IterP50Ms, r.IterTailPct, r.IterTailMs)
	fmt.Fprintf(w, "sim_digest %s over %d iterations; ops %d attempted, %d failed\n", r.SimDigest, r.SimIters, r.Attempted, r.Failed)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-28s %s %s\n", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	detail, _ := json.Marshal(r)
	fmt.Fprintf(w, "detail %s\n", detail)
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", last)
}
