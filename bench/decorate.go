package main

import (
	"reflect"
	"runtime"
	"strings"

	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// The traced run observes the program from outside: no file of the
// repository carries a span. Three decorators sit at the interfaces the
// layers already talk through — substrate.Cluster (and its Flows),
// spark.Scheduler and spark.ConnPolicy — and must be transparent: the
// traced run has to reproduce the untraced run's sim_digest.

// clusterTrace decorates a substrate. Calls that can do substrate work
// (stepping the clock, starting or resizing flows, anything that forces
// a rate allocation) become netsim spans. Every callback an upper layer
// hands the substrate is wrapped in a span attributed to the package
// that owns the callback, so the substrate's self time is its span
// minus the upper-layer code that ran inside it.
type clusterTrace struct {
	substrate.Cluster
	sim *netsim.Sim
	t   *tracer
	c   *simCounters
}

// simCounters are the substrate counts a traced iteration reports.
type simCounters struct {
	flowsStarted int
	// snapshotProbes are the probes measure.BeginSnapshot started;
	// probesPerSnapshot (every ordered VM pair across DCs) turns them
	// into a snapshot count.
	snapshotProbes, probesPerSnapshot int
	retryProbes                       int // probes a hardened snapshot's retry started
	probeBytes                        float64
	timersFired                       int
	rateReads                         int
	peakFlows                         int
	peakGroups                        int
}

func (c *simCounters) add(o simCounters) {
	c.flowsStarted += o.flowsStarted
	c.snapshotProbes += o.snapshotProbes
	c.probesPerSnapshot = max(c.probesPerSnapshot, o.probesPerSnapshot)
	c.retryProbes += o.retryProbes
	c.probeBytes += o.probeBytes
	c.timersFired += o.timersFired
	c.rateReads += o.rateReads
	c.peakFlows = max(c.peakFlows, o.peakFlows)
	c.peakGroups = max(c.peakGroups, o.peakGroups)
}

func newClusterTrace(sim *netsim.Sim, t *tracer, c *simCounters) *clusterTrace {
	vms, sameDC := sim.NumVMs(), 0
	for dc := 0; dc < sim.NumDCs(); dc++ {
		k := len(sim.VMsOfDC(dc))
		sameDC += k * k
	}
	c.probesPerSnapshot = vms*vms - sameDC
	return &clusterTrace{Cluster: sim, sim: sim, t: t, c: c}
}

type cbInfo struct {
	lay layer
	op  string
}

// cbCache maps a callback's entry PC to its layer and span name. One
// goroutine drives a workload, so the map needs no lock.
var cbCache = map[uintptr]cbInfo{}

const modulePath = "github.com/wanify/wanify"

// layerOfFunc maps a fully qualified function name to its layer and a
// short name ("agent:(*Agent).epoch-fm").
func layerOfFunc(full string) cbInfo {
	rest, ok := strings.CutPrefix(full, modulePath)
	if !ok {
		return cbInfo{lBench, "bench:" + full}
	}
	lay, short := lWanify, strings.TrimPrefix(rest, ".")
	if pkgPath, ok := strings.CutPrefix(rest, "/"); ok {
		dot := strings.Index(pkgPath, ".")
		if dot < 0 {
			dot = len(pkgPath)
		}
		pkg := pkgPath[:dot]
		short = strings.TrimPrefix(pkgPath[dot:], ".")
		switch pkg {
		case "internal/netsim", "internal/tracesim", "internal/substrate":
			lay = lNetsim
		case "internal/measure":
			lay = lMeasure
		case "internal/ml/dataset":
			lay = lDataset
		case "internal/predict", "internal/ml/rf":
			lay = lPredict
		case "internal/optimize":
			lay = lOptimize
		case "internal/gda":
			lay = lGDA
		case "internal/agent":
			lay = lAgent
		case "internal/spark":
			lay = lSpark
		case "internal/runtime":
			lay = lRuntime
		case "internal/serve":
			lay = lServe
		default:
			lay = lBench
		}
	}
	return cbInfo{lay, layerNames[lay] + ":" + short}
}

// callbackOp names a callback after its own function, which is declared
// in the package that registered it: agent epochs, controller epochs,
// job-set stage machinery, plane telemetry, probe retries.
func callbackOp(fn any) cbInfo {
	pc := reflect.ValueOf(fn).Pointer()
	if info, ok := cbCache[pc]; ok {
		return info
	}
	info := layerOfFunc(runtime.FuncForPC(pc).Name())
	cbCache[pc] = info
	return info
}

// probeOrigin walks the nearest frames above StartProbe once and says
// which part of measure started the probe.
func probeOrigin() (snapshot, retry bool) {
	var pcs [6]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		switch {
		case strings.Contains(f.Function, "measure.BeginSnapshot"):
			return true, false
		case strings.Contains(f.Function, "armRetry"):
			return false, true
		case !more:
			return false, false
		}
	}
}

func (c *clusterTrace) wrapTimer(fn func(now float64)) func(now float64) {
	info := callbackOp(fn)
	return func(now float64) {
		c.c.timersFired++
		c.notePeaks()
		c.t.begin(info.lay, info.op)
		fn(now)
		dur := c.t.end()
		// The controller's apply callback closes a re-gauge cycle:
		// trigger epoch -> probe window -> collect/predict/optimize/swap.
		if info.lay == lRuntime && c.t.replanStart >= 0 && strings.Contains(info.op, "beginRegauge") {
			total := c.t.now() - c.t.replanStart
			c.t.sample(opReplan, lRuntime, total)
			c.t.sample(opReplanPlan, lRuntime, dur)
			c.t.sample(opReplanProbe, lRuntime, total-dur)
			c.t.replanStart = -1
		}
	}
}

func (c *clusterTrace) wrapDone(fn func()) func() {
	if fn == nil {
		return nil
	}
	info := callbackOp(fn)
	return func() {
		c.t.begin(info.lay, info.op)
		fn()
		c.t.end()
	}
}

func (c *clusterTrace) After(delay float64, fn func(now float64)) {
	c.Cluster.After(delay, c.wrapTimer(fn))
}

func (c *clusterTrace) Every(interval float64, fn func(now float64)) (cancel func()) {
	return c.Cluster.Every(interval, c.wrapTimer(fn))
}

func (c *clusterTrace) RunFor(d float64) {
	c.t.begin(lNetsim, "netsim.run")
	c.Cluster.RunFor(d)
	c.t.end()
}

func (c *clusterTrace) RunUntil(at float64) {
	c.t.begin(lNetsim, "netsim.run")
	c.Cluster.RunUntil(at)
	c.t.end()
}

func (c *clusterTrace) AwaitFlows(maxWait float64, flows ...substrate.Flow) error {
	c.t.begin(lNetsim, "netsim.run")
	err := c.Cluster.AwaitFlows(maxWait, flows...)
	c.t.end()
	return err
}

func (c *clusterTrace) notePeaks() {
	c.c.peakFlows = max(c.c.peakFlows, c.sim.ActiveFlows())
	groups, _ := c.sim.AllocGroups()
	c.c.peakGroups = max(c.c.peakGroups, groups)
}

func (c *clusterTrace) StartFlow(src, dst substrate.VMID, conns int, bytes float64, onDone func()) substrate.Flow {
	c.t.begin(lNetsim, "netsim.start_flow")
	f := c.Cluster.StartFlow(src, dst, conns, bytes, c.wrapDone(onDone))
	c.t.end()
	c.c.flowsStarted++
	c.notePeaks()
	return &flowTrace{Flow: f, c: c}
}

func (c *clusterTrace) StartProbe(src, dst substrate.VMID, conns int) substrate.Flow {
	switch snapshot, retry := probeOrigin(); {
	case snapshot:
		c.c.snapshotProbes++
	case retry:
		c.c.retryProbes++
	}
	// A probe started from inside a controller epoch is a re-gauge
	// trigger: the cycle is timed from that epoch's start.
	if c.t.replanStart < 0 {
		if start, ok := c.t.inside("runtime:(*Controller).epoch-fm"); ok {
			c.t.replanStart = start
		}
	}
	c.t.begin(lNetsim, "netsim.start_flow")
	f := c.Cluster.StartProbe(src, dst, conns)
	c.t.end()
	c.c.flowsStarted++
	c.notePeaks()
	return &flowTrace{Flow: f, c: c, probeStart: f.TransferredBytes()}
}

func (c *clusterTrace) PairRate(srcDC, dstDC int) float64 {
	c.c.rateReads++
	c.t.begin(lNetsim, "netsim.rate")
	r := c.Cluster.PairRate(srcDC, dstDC)
	c.t.end()
	return r
}

func (c *clusterTrace) VMStats(id substrate.VMID) substrate.VMStats {
	c.c.rateReads++
	c.t.begin(lNetsim, "netsim.rate")
	s := c.Cluster.VMStats(id)
	c.t.end()
	return s
}

func (c *clusterTrace) SetCPULoad(id substrate.VMID, load float64) {
	c.t.begin(lNetsim, "netsim.tc")
	c.Cluster.SetCPULoad(id, load)
	c.t.end()
}

func (c *clusterTrace) SetPairLimit(srcDC, dstDC int, mbps float64) {
	c.t.begin(lNetsim, "netsim.tc")
	c.Cluster.SetPairLimit(srcDC, dstDC, mbps)
	c.t.end()
}

func (c *clusterTrace) ClearPairLimit(srcDC, dstDC int) {
	c.t.begin(lNetsim, "netsim.tc")
	c.Cluster.ClearPairLimit(srcDC, dstDC)
	c.t.end()
}

// flowTrace decorates a flow: the calls that touch the allocator are
// netsim spans, failure handlers are attributed like timers, and a
// probe's bytes are billed when it is torn down.
type flowTrace struct {
	substrate.Flow
	c          *clusterTrace
	probeStart float64
}

func (f *flowTrace) Rate() float64 {
	f.c.c.rateReads++
	f.c.t.begin(lNetsim, "netsim.rate")
	r := f.Flow.Rate()
	f.c.t.end()
	return r
}

func (f *flowTrace) SetConns(n int) {
	f.c.t.begin(lNetsim, "netsim.set_conns")
	f.Flow.SetConns(n)
	f.c.t.end()
}

func (f *flowTrace) Stop() {
	if f.Flow.Probe() && !f.Flow.Done() {
		f.c.c.probeBytes += f.Flow.TransferredBytes() - f.probeStart
	}
	f.c.t.begin(lNetsim, "netsim.stop_flow")
	f.Flow.Stop()
	f.c.t.end()
}

func (f *flowTrace) OnFail(fn func()) {
	f.Flow.OnFail(f.c.wrapDone(fn))
}

// schedTrace spans every placement as gda.
type schedTrace struct {
	inner spark.Scheduler
	t     *tracer
}

func (s schedTrace) Name() string { return s.inner.Name() }

func (s schedTrace) Place(stageIdx int, stage spark.Stage, layout []float64) spark.Placement {
	s.t.begin(lGDA, opPlace)
	p := s.inner.Place(stageIdx, stage, layout)
	s.t.end()
	return p
}

// policyTrace spans the connection policy's calls as agent: the
// Connections Manager answering and registering transfers.
type policyTrace struct {
	inner spark.ConnPolicy
	t     *tracer
}

func (p policyTrace) Conns(srcVM substrate.VMID, dstDC int) int {
	p.t.begin(lAgent, "agent.conns")
	n := p.inner.Conns(srcVM, dstDC)
	p.t.end()
	return n
}

func (p policyTrace) Register(f substrate.Flow) {
	p.t.begin(lAgent, "agent.register")
	p.inner.Register(f)
	p.t.end()
}

func traceSched(s spark.Scheduler, t *tracer) spark.Scheduler {
	if t == nil {
		return s
	}
	return schedTrace{inner: s, t: t}
}

func tracePolicy(p spark.ConnPolicy, t *tracer) spark.ConnPolicy {
	if t == nil {
		return p
	}
	return policyTrace{inner: p, t: t}
}
