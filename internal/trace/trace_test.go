package trace

import (
	"bytes"
	"strings"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/substrate"
)

func frozenSim(n int, seed uint64) *netsim.Sim {
	cfg := netsim.UniformCluster(geo.TestbedSubset(n), substrate.T2Medium, seed)
	cfg.Frozen = true
	return netsim.NewSim(cfg)
}

// TestRecorderSamplesRates checks cadence and values.
func TestRecorderSamplesRates(t *testing.T) {
	sim := frozenSim(3, 1)
	rec := NewRecorder(sim, 1.0)
	f := sim.StartProbe(sim.FirstVMOfDC(0), sim.FirstVMOfDC(1), 1)
	sim.RunFor(5.5)
	rec.Close()
	if rec.Len() != 5 {
		t.Fatalf("%d samples over 5.5s at 1 Hz, want 5", rec.Len())
	}
	samples := rec.Samples()
	if samples[len(samples)-1].RateMbps[0][1] <= 0 {
		t.Error("active pair recorded as idle")
	}
	for _, s := range samples {
		if v := s.RateMbps[1][2]; v != 0 {
			t.Errorf("idle pair recorded rate %v at t=%v", v, s.Now)
		}
	}
	f.Stop()
}

// TestRecorderStopsAfterClose checks Close halts sampling.
func TestRecorderStopsAfterClose(t *testing.T) {
	sim := frozenSim(2, 2)
	rec := NewRecorder(sim, 1.0)
	sim.RunFor(3.5)
	rec.Close()
	n := rec.Len()
	sim.RunFor(3)
	if rec.Len() != n {
		t.Errorf("recorder kept sampling after Close: %d -> %d", n, rec.Len())
	}
}

// TestWriteCSV checks the export format.
func TestWriteCSV(t *testing.T) {
	sim := frozenSim(3, 3)
	rec := NewRecorder(sim, 1.0)
	f := sim.StartProbe(sim.FirstVMOfDC(0), sim.FirstVMOfDC(2), 2)
	sim.RunFor(3.2)
	rec.Close()
	f.Stop()

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "time_s,src,dst,rate_mbps" {
		t.Errorf("header = %q", lines[0])
	}
	// 3 samples of one active pair with zeros skipped.
	if len(lines) != 4 {
		t.Errorf("%d lines, want 4 (header + 3 samples)", len(lines))
	}
	if !strings.Contains(out, "US East,AP South") {
		t.Errorf("region names missing:\n%s", out)
	}

	// With zeros kept, every ordered pair appears.
	buf.Reset()
	if err := rec.WriteCSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	all := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := 1 + 3*6; len(all) != want {
		t.Errorf("%d lines with zeros, want %d", len(all), want)
	}
}

// TestRecorderDeterminism checks same-seed recordings agree.
func TestRecorderDeterminism(t *testing.T) {
	run := func() []Sample {
		cfg := netsim.UniformCluster(geo.TestbedSubset(3), substrate.T2Medium, 9)
		sim := netsim.NewSim(cfg) // weather on
		rec := NewRecorder(sim, 1.0)
		f := sim.StartProbe(sim.FirstVMOfDC(0), sim.FirstVMOfDC(1), 2)
		sim.RunFor(10)
		rec.Close()
		f.Stop()
		return rec.Samples()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ")
	}
	for k := range a {
		if a[k].RateMbps[0][1] != b[k].RateMbps[0][1] {
			t.Fatalf("sample %d differs: %v vs %v", k, a[k].RateMbps[0][1], b[k].RateMbps[0][1])
		}
	}
}
