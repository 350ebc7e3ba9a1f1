package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// layer is the module a span's host time is attributed to. The names
// are the repository's package names; "bench" is this program itself.
type layer uint8

const (
	lBench layer = iota
	lNetsim
	lMeasure
	lDataset
	lPredict
	lOptimize
	lGDA
	lAgent
	lSpark
	lRuntime
	lServe
	lWanify
	numLayers
)

var layerNames = [numLayers]string{
	"bench", "netsim", "measure", "dataset", "predict", "optimize",
	"gda", "agent", "spark", "runtime", "serve", "wanify",
}

// Span operations the harness reads back by name. Callback spans are
// named after the callback's own function (see callbackOp).
const (
	opIter        = "bench.iter"
	opNewSim      = "netsim.newsim"
	opSnapshot    = "measure.snapshot"
	opFeatures    = "dataset.features"
	opFingerprint = "predict.fingerprint"
	opMatrix      = "predict.matrix"
	opTrain       = "predict.train"
	opGlobal      = "optimize.global"
	opPartition   = "optimize.partition"
	opPlace       = "gda.place"
	opChunk       = "agent.chunk"
	opDeploy      = "agent.deploy"
	opEnable      = "wanify.enable"
	opSubmit      = "serve.submit"
	opReplan      = "runtime.replan"       // trigger epoch start -> apply callback end
	opReplanPlan  = "runtime.replan_plan"  // the apply callback alone
	opReplanProbe = "runtime.replan_probe" // the difference: the probe window
)

// sampledOps keep one duration per call so the harness can report a
// median; every other op keeps totals only (substrate calls number in
// the millions).
var sampledOps = map[string]bool{
	opNewSim: true, opSnapshot: true, opFeatures: true, opFingerprint: true,
	opMatrix: true, opGlobal: true, opPartition: true, opPlace: true,
	opChunk: true, opEnable: true,
	opReplan: true, opReplanPlan: true, opReplanProbe: true,
}

// span is one recorded interval: name, start, end, the span that caused
// it and the iteration it belongs to. Times are nanoseconds since the
// tracer started.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Iter   int32  `json:"iter"`
}

type frame struct {
	op       string
	lay      layer
	start    int64
	children int64 // summed durations of direct child spans
	idx      int32 // index into tracer.spans, -1 when the iteration is not kept
}

type opStat struct {
	lay     layer
	sampled bool
	calls   int64
	incl    int64 // inclusive nanoseconds
	self    int64
	samples []float64 // per-call inclusive nanoseconds, sampledOps only
}

// tracer records spans on the single goroutine that drives a workload.
// A nil *tracer is the untraced run: every method returns at once, and
// the workloads install no decorator at all.
type tracer struct {
	t0    time.Time
	stack []frame
	iter  int32
	ops   map[string]*opStat
	self  [numLayers]int64
	calls [numLayers]int64

	// Spans are kept (for the trace file) for the first iteration only:
	// a serve4 iteration alone is ~10^5 spans.
	keep  bool
	spans []span

	// Re-gauge cycle bookkeeping (see clusterTrace.StartProbe).
	replanStart int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ops: make(map[string]*opStat), replanStart: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; the matching end must run on every path.
func (t *tracer) begin(lay layer, op string) {
	if t == nil {
		return
	}
	idx := int32(-1)
	if t.keep {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: op, Layer: layerNames[lay], Parent: parent, Iter: t.iter})
	}
	t.stack = append(t.stack, frame{op: op, lay: lay, start: t.now(), idx: idx})
}

// end closes the innermost span and returns its inclusive duration.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	now := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - f.start
	self := dur - f.children
	if n > 0 {
		t.stack[n-1].children += dur
	}
	if f.idx >= 0 {
		t.spans[f.idx].Start, t.spans[f.idx].End = f.start, now
	}
	t.record(f.op, f.lay, dur, self)
	return dur
}

func (t *tracer) stat(op string, lay layer) *opStat {
	st := t.ops[op]
	if st == nil {
		st = &opStat{lay: lay, sampled: sampledOps[op]}
		t.ops[op] = st
	}
	return st
}

func (t *tracer) record(op string, lay layer, dur, self int64) {
	st := t.stat(op, lay)
	st.calls++
	st.incl += dur
	st.self += self
	if st.sampled {
		st.samples = append(st.samples, float64(dur))
	}
	t.self[lay] += self
	t.calls[lay]++
}

// sample records a derived duration (not a span) under a sampled op.
func (t *tracer) sample(op string, lay layer, dur int64) {
	st := t.stat(op, lay)
	st.calls++
	st.samples = append(st.samples, float64(dur))
}

// inside reports whether a span of the given op is open.
func (t *tracer) inside(op string) (start int64, ok bool) {
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].op == op {
			return t.stack[i].start, true
		}
	}
	return 0, false
}

func (t *tracer) op(name string) opStat {
	if st := t.ops[name]; st != nil {
		return *st
	}
	return opStat{}
}

// opsMatching sums the ops of one layer whose name contains substr —
// how callback spans (named after internal functions) are read back.
func (t *tracer) opsMatching(lay layer, substr string) (calls, self int64) {
	for name, st := range t.ops {
		if st.lay == lay && strings.Contains(name, substr) {
			calls += st.calls
			self += st.self
		}
	}
	return calls, self
}

// writeSpans dumps the kept spans as JSON.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
