package tracesim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/trace"
)

// tinyTrace builds a 3-region trace with hand-picked caps.
func tinyTrace(loop bool) *Trace {
	mk := func(v float64) [][]float64 {
		m := make([][]float64, 3)
		for i := range m {
			m[i] = make([]float64, 3)
			for j := range m[i] {
				if i != j {
					m[i][j] = v
				}
			}
		}
		return m
	}
	return &Trace{
		Name:    "tiny",
		Regions: geo.TestbedSubset(3),
		Samples: []Sample{
			{T: 0, PerConnMbps: mk(400)},
			{T: 10, PerConnMbps: mk(250)},
			{T: 20, PerConnMbps: mk(700)},
		},
		Loop:    loop,
		PeriodS: 30,
	}
}

// TestReplayAppliesSamples checks caps step exactly at sample
// boundaries and hold after a non-looping trace ends.
func TestReplayAppliesSamples(t *testing.T) {
	s, err := New(Config{Trace: tinyTrace(false), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PerConnCapMbps(0, 1); got != 400 {
		t.Fatalf("cap at t=0: %v, want 400 (first sample applies at construction)", got)
	}
	s.RunFor(15)
	if got := s.PerConnCapMbps(0, 1); got != 250 {
		t.Errorf("cap at t=15: %v, want 250", got)
	}
	s.RunFor(10)
	if got := s.PerConnCapMbps(2, 0); got != 700 {
		t.Errorf("cap at t=25: %v, want 700", got)
	}
	s.RunFor(1000)
	if got := s.PerConnCapMbps(1, 2); got != 700 {
		t.Errorf("cap long after a non-looping trace: %v, want last sample's 700", got)
	}
}

// TestReplayLoops checks cyclic replay: after the period, the first
// sample's values return.
func TestReplayLoops(t *testing.T) {
	s, err := New(Config{Trace: tinyTrace(true), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(25) // inside cycle 0, on sample 2
	if got := s.PerConnCapMbps(0, 1); got != 700 {
		t.Fatalf("cap at t=25: %v, want 700", got)
	}
	s.RunFor(10) // t=35 = period 30 + 5: cycle 1, sample 0
	if got := s.PerConnCapMbps(0, 1); got != 400 {
		t.Errorf("cap at t=35: %v, want 400 (loop wrapped)", got)
	}
	s.RunFor(37) // t=72: cycle 2 (starts at 60), local t=12, sample 1
	if got := s.PerConnCapMbps(0, 1); got != 250 {
		t.Errorf("cap at t=72: %v, want 250 (second wrap)", got)
	}
}

// TestReplayDeterminism mirrors netsim's repeated-allocate guarantee:
// two replays of the same trace under the same churn workload produce
// bit-identical rates at every checkpoint.
func TestReplayDeterminism(t *testing.T) {
	run := func() []float64 {
		s, err := New(Config{Trace: Diurnal8(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rng := simrand.Derive(7, "churn")
		var live []substrate.Flow
		var rates []float64
		for step := 0; step < 40; step++ {
			if len(live) < 12 || rng.Bool(0.6) {
				src := rng.IntN(s.NumDCs())
				dst := rng.IntN(s.NumDCs())
				if src != dst {
					conns := 1 + rng.IntN(6)
					if rng.Bool(0.3) {
						live = append(live, s.StartProbe(s.FirstVMOfDC(src), s.FirstVMOfDC(dst), conns))
					} else {
						live = append(live, s.StartFlow(s.FirstVMOfDC(src), s.FirstVMOfDC(dst), conns,
							float64(rng.IntN(300)+1)*1e6, nil))
					}
				}
			} else {
				k := rng.IntN(len(live))
				live[k].Stop()
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			s.RunFor(37.5) // crosses the 600 s sample boundaries mid-run
			for _, f := range live {
				if !f.Done() {
					rates = append(rates, f.Rate())
				}
			}
		}
		return rates
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rate %d differs across identical replays: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestReplayConservation mirrors alloc_invariants: under the replayed
// caps, per-flow rates respect the trace's per-connection envelope and
// per-VM egress/ingress stay within spec.
func TestReplayConservation(t *testing.T) {
	s, err := New(Config{Trace: Cloud4(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumDCs()
	var flows []substrate.Flow
	conns := func(i, j int) int { return (i*n+j)%5 + 1 }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				flows = append(flows, s.StartProbe(s.FirstVMOfDC(i), s.FirstVMOfDC(j), conns(i, j)))
			}
		}
	}
	const slack = 1 + 1e-9
	for _, stop := range []float64{100, 700, 1200} { // spans the 600-900 s episode
		s.RunUntil(stop)
		egress := make([]float64, s.NumVMs())
		ingress := make([]float64, s.NumVMs())
		for _, f := range flows {
			r := f.Rate()
			if r < 0 {
				t.Fatalf("negative rate %v", r)
			}
			i, j := s.DCOf(f.Src()), s.DCOf(f.Dst())
			if env := float64(f.Conns()) * s.PerConnCapMbps(i, j); r > env*slack {
				t.Fatalf("t=%.0f: flow %d->%d rate %.1f exceeds trace envelope %.1f", stop, i, j, r, env)
			}
			egress[f.Src()] += r
			ingress[f.Dst()] += r
		}
		for v := 0; v < s.NumVMs(); v++ {
			spec := s.Spec(substrate.VMID(v))
			if egress[v] > spec.EgressMbps*slack {
				t.Fatalf("t=%.0f: VM %d egress %.1f exceeds %.1f", stop, v, egress[v], spec.EgressMbps)
			}
			if ingress[v] > spec.IngressMbps*slack {
				t.Fatalf("t=%.0f: VM %d ingress %.1f exceeds %.1f", stop, v, ingress[v], spec.IngressMbps)
			}
		}
	}
}

// TestReplayEpisodeBites checks the Cloud4 congestion episode actually
// reaches flows: the US East -> EU West probe slows during 600-900 s.
func TestReplayEpisodeBites(t *testing.T) {
	s, err := New(Config{Trace: Cloud4(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := s.StartProbe(s.FirstVMOfDC(0), s.FirstVMOfDC(2), 1) // US East -> EU West
	s.RunUntil(500)
	before := f.Rate()
	s.RunUntil(750)
	during := f.Rate()
	s.RunUntil(1100)
	after := f.Rate()
	if during >= before*0.7 {
		t.Errorf("episode rate %.0f not clearly below pre-episode %.0f", during, before)
	}
	if after <= during*1.3 {
		t.Errorf("post-episode rate %.0f did not recover from %.0f", after, during)
	}
	f.Stop()
}

// TestReplayFaults checks the fault model holds on the trace backend:
// a partition keeps the pair at zero rate ACROSS sample boundaries
// (the replay's SetPerConnCap updates must not resurrect a severed
// pair), flows stall rather than fail, and a VM kill fails its flows
// exactly as on netsim.
func TestReplayFaults(t *testing.T) {
	s, err := New(Config{Trace: tinyTrace(true), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	stalled := s.StartFlow(s.FirstVMOfDC(0), s.FirstVMOfDC(1), 2, 50e9, nil)
	s.PartitionDC(1, 5, 95)
	s.RunFor(30) // crosses the t=10 and t=20 sample boundaries mid-partition
	if got := stalled.Rate(); got != 0 {
		t.Fatalf("rate %.1f during partition after sample boundaries, want 0", got)
	}
	if stalled.Done() || stalled.Failed() {
		t.Fatal("partition failed the flow on the trace backend")
	}
	s.RunFor(70) // partition heals at t=95
	if stalled.Rate() <= 0 {
		t.Error("flow did not resume after the partition healed")
	}

	failed := 0
	victim := s.StartFlow(s.FirstVMOfDC(2), s.FirstVMOfDC(0), 1, 50e9, nil)
	victim.OnFail(func() { failed++ })
	s.KillVM(s.FirstVMOfDC(2), s.Now()+5)
	s.RunFor(10)
	if !victim.Failed() || failed != 1 {
		t.Errorf("victim failed=%v onFail=%d after trace-backend kill", victim.Failed(), failed)
	}
	if s.VMAlive(s.FirstVMOfDC(2)) {
		t.Error("killed VM reported alive")
	}
}

// TestBundledTraces checks both embedded traces parse and have the
// documented shapes.
func TestBundledTraces(t *testing.T) {
	d := Diurnal8()
	if d.N() != 8 || !d.Loop || d.PeriodS != 86400 {
		t.Errorf("diurnal8 shape: n=%d loop=%v period=%v", d.N(), d.Loop, d.PeriodS)
	}
	if len(d.Samples) != 144 {
		t.Errorf("diurnal8 has %d samples, want 144 (10-minute cadence)", len(d.Samples))
	}
	c := Cloud4()
	if c.N() != 4 || c.Loop {
		t.Errorf("cloud4 shape: n=%d loop=%v", c.N(), c.Loop)
	}
	if c.DurationS() != 1800 {
		t.Errorf("cloud4 duration %v, want 1800", c.DurationS())
	}
	if _, err := Bundled("nope"); err == nil {
		t.Error("unknown bundled trace accepted")
	}
}

// TestSubset checks region subsetting for drivers that sweep cluster
// sizes.
func TestSubset(t *testing.T) {
	d := Diurnal8()
	s, err := d.Subset(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 4 || len(s.Samples) != len(d.Samples) {
		t.Fatalf("subset shape: n=%d samples=%d", s.N(), len(s.Samples))
	}
	if s.Samples[3].PerConnMbps[1][2] != d.Samples[3].PerConnMbps[1][2] {
		t.Error("subset values diverge from parent")
	}
	if _, err := d.Subset(9); err == nil {
		t.Error("oversized subset accepted")
	}
	if full, _ := d.Subset(8); full != d {
		t.Error("full-size subset should return the trace itself")
	}
}

// TestParseCSVRoundTrip checks the long-form CSV reader: region order
// by first appearance, carry-forward for omitted pairs.
func TestParseCSVRoundTrip(t *testing.T) {
	csv := `time_s,src,dst,per_conn_mbps
0,US East,US West,1000
0,US West,US East,900
60,US East,US West,500
`
	tr, err := ParseCSV(strings.NewReader(csv), "rt")
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 2 || tr.Regions[0].Name != "US East" {
		t.Fatalf("regions: %v", tr.Regions)
	}
	if len(tr.Samples) != 2 {
		t.Fatalf("%d samples, want 2", len(tr.Samples))
	}
	if tr.Samples[1].PerConnMbps[0][1] != 500 {
		t.Errorf("updated pair = %v, want 500", tr.Samples[1].PerConnMbps[0][1])
	}
	if tr.Samples[1].PerConnMbps[1][0] != 900 {
		t.Errorf("omitted pair = %v, want carried-forward 900", tr.Samples[1].PerConnMbps[1][0])
	}
}

// TestRecorderRoundTrip checks the record-then-replay loop: a rate
// series written by trace.Recorder (rate_mbps header) parses into a
// replayable trace.
func TestRecorderRoundTrip(t *testing.T) {
	cfg := netsim.UniformCluster(geo.TestbedSubset(2), substrate.T2Medium, 3)
	cfg.Frozen = true
	src := netsim.NewSim(cfg)
	rec := trace.NewRecorder(src, 1.0)
	f := src.StartProbe(src.FirstVMOfDC(0), src.FirstVMOfDC(1), 1)
	src.RunFor(5)
	f.Stop()
	rec.Close()
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseCSV(&buf, "recorded")
	if err != nil {
		t.Fatalf("parsing a Recorder CSV: %v", err)
	}
	if tr.N() != 2 || len(tr.Samples) == 0 {
		t.Fatalf("recorded trace shape: n=%d samples=%d", tr.N(), len(tr.Samples))
	}
	if _, err := New(Config{Trace: tr}); err != nil {
		t.Fatalf("replaying a recorded trace: %v", err)
	}
}

// TestParseErrors checks the loader rejects malformed traces loudly.
func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown region": `{"name":"x","regions":["Atlantis","US East"],"samples":[{"t":0,"per_conn_mbps":[[0,1],[1,0]]}]}`,
		"no samples":     `{"name":"x","regions":["US East","US West"],"samples":[]}`,
		"bad shape":      `{"name":"x","regions":["US East","US West"],"samples":[{"t":0,"per_conn_mbps":[[0,1]]}]}`,
		"time order":     `{"name":"x","regions":["US East","US West"],"samples":[{"t":5,"per_conn_mbps":[[0,1],[1,0]]},{"t":5,"per_conn_mbps":[[0,1],[1,0]]}]}`,
		"short period":   `{"name":"x","regions":["US East","US West"],"loop":true,"period_s":1,"samples":[{"t":0,"per_conn_mbps":[[0,1],[1,0]]},{"t":5,"per_conn_mbps":[[0,1],[1,0]]}]}`,
	}
	for name, doc := range cases {
		if _, err := ParseJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseCSV(strings.NewReader("wrong,header\n1,2"), "x"); err == nil {
		t.Error("bad CSV header accepted")
	}
}

// TestParseRejectsHostileTraces feeds the readers inputs an earlier
// version accepted or crashed on. Each must be a clean error, while an
// explicit NaN ("no override" in CSV) still parses.
func TestParseRejectsHostileTraces(t *testing.T) {
	const hdr = "time_s,src,dst,per_conn_mbps\n"
	for name, doc := range map[string]string{
		"header only":   hdr,
		"NaN time":      hdr + "NaN,US East,US West,500\n0,US East,US West,600\n",
		"Inf time":      hdr + "0,US East,US West,500\nInf,US East,US West,600\n",
		"Inf rate":      hdr + "0,US East,US West,+Inf\n0,US West,US East,700\n",
		"negative rate": hdr + "0,US East,US West,-5\n0,US West,US East,700\n",
	} {
		t.Run(name, func(t *testing.T) {
			if tr, err := ParseCSV(strings.NewReader(doc), "hostile"); err == nil {
				t.Errorf("accepted with %d samples", len(tr.Samples))
			}
		})
	}
	tr, err := ParseCSV(strings.NewReader(hdr+"0,US East,US West,NaN\n0,US West,US East,700\n"), "nan")
	if err != nil {
		t.Fatalf("explicit no-override refused: %v", err)
	}
	if !math.IsNaN(tr.Samples[0].PerConnMbps[0][1]) {
		t.Error("NaN entry not kept as no-override")
	}
	loop := tinyTrace(true)
	loop.PeriodS = math.Inf(1)
	if _, err := New(Config{Trace: loop}); err == nil {
		t.Error("infinite loop period accepted")
	}
}

// FuzzParseTrace feeds arbitrary bytes to both trace readers. Each must
// refuse the input or return a trace the replay backend accepts, with
// finite sample times in strictly ascending order.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		csvTr, csvErr := ParseCSV(bytes.NewReader(data), "fuzz")
		jsonTr, jsonErr := ParseJSON(bytes.NewReader(data))
		for _, parsed := range []struct {
			tr  *Trace
			err error
		}{{csvTr, csvErr}, {jsonTr, jsonErr}} {
			if parsed.err != nil {
				continue
			}
			prev := math.Inf(-1)
			for k, s := range parsed.tr.Samples {
				if math.IsInf(s.T, 0) || !(s.T > prev) {
					t.Fatalf("sample %d time %v after %v", k, s.T, prev)
				}
				prev = s.T
			}
			if _, err := New(Config{Trace: parsed.tr}); err != nil {
				t.Fatalf("parsed trace refused by New: %v", err)
			}
		}
	})
}

// TestNegativeMeansNoOverride checks that negative JSON entries leave
// the geography-derived cap in place.
func TestNegativeMeansNoOverride(t *testing.T) {
	doc := `{"name":"x","regions":["US East","US West"],"samples":[{"t":0,"per_conn_mbps":[[0,-1],[700,0]]}]}`
	tr, err := ParseJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(tr.Samples[0].PerConnMbps[0][1]) {
		t.Error("negative entry not mapped to no-override")
	}
	geoCap := s.PerConnCapMbps(0, 1)
	if geoCap < 1600 || geoCap > 1800 {
		t.Errorf("no-override pair cap %v, want the ~1700 geography anchor", geoCap)
	}
	if got := s.PerConnCapMbps(1, 0); got != 700 {
		t.Errorf("overridden pair cap %v, want 700", got)
	}
}
