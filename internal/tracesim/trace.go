// Package tracesim is the trace-replay WAN backend: a deterministic
// substrate.Cluster implementation that drives per-DC-pair
// per-connection bandwidth from a recorded timeseries instead of the
// synthetic Ornstein–Uhlenbeck weather of internal/netsim.
//
// Replaying measured traces is how cross-layer GDA systems (Terra) and
// cloud inter-region bandwidth studies evaluate against real WAN
// behaviour; tracesim lets every WANify experiment driver run against
// such recordings (`-backend trace:<file>`) without forking the
// simulator. Two traces ship embedded: a synthetic-diurnal 8-region
// day (Diurnal8) and a cloud-measurement-shaped 4-region recording
// (Cloud4).
//
// A trace holds, for each sample time, the single-connection
// achievable throughput for each ordered DC pair — the same quantity
// netsim derives from geography (Sim.PerConnCapMbps). Everything else
// (contention, congestion knees, host factors, slow start, tc limits)
// still comes from the shared fluid model: tracesim wraps a frozen
// netsim.Sim and feeds the recorded caps into it at each sample
// boundary, so the incremental water-filling allocator, flow
// lifecycle and timer wheel are reused unchanged. See DESIGN.md §1b
// for the file format.
package tracesim

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/wanify/wanify/internal/geo"
)

// Sample is one instant of a trace: the per-connection achievable
// throughput (Mbps) for every ordered DC pair. NaN entries mean "no
// override": the pair keeps its geography-derived cap.
type Sample struct {
	// T is the sample time in seconds from trace start.
	T float64
	// PerConnMbps is indexed [srcDC][dstDC]; the diagonal is ignored.
	PerConnMbps [][]float64
}

// Trace is a recorded per-DC-pair bandwidth timeseries.
type Trace struct {
	// Name identifies the trace in reports and scenario ids.
	Name string
	// Regions are the data centers the trace covers, in DC order.
	Regions []geo.Region
	// Samples are the recorded instants, in strictly ascending time.
	Samples []Sample
	// Loop replays the trace cyclically with the given period; when
	// false, the last sample's values hold forever.
	Loop bool
	// PeriodS is the loop period in seconds (must exceed the last
	// sample time). Ignored unless Loop is set.
	PeriodS float64
}

// N returns the number of DCs the trace covers.
func (tr *Trace) N() int { return len(tr.Regions) }

// DurationS returns the time of the last sample.
func (tr *Trace) DurationS() float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	return tr.Samples[len(tr.Samples)-1].T
}

// Subset returns a view of the trace restricted to the first n regions
// (the same convention as geo.TestbedSubset). Sample matrices are
// re-sliced, not copied.
func (tr *Trace) Subset(n int) (*Trace, error) {
	if n < 1 || n > tr.N() {
		return nil, fmt.Errorf("tracesim: subset size %d out of range [1, %d] for trace %q", n, tr.N(), tr.Name)
	}
	if n == tr.N() {
		return tr, nil
	}
	out := &Trace{
		Name:    fmt.Sprintf("%s[:%d]", tr.Name, n),
		Regions: tr.Regions[:n],
		Loop:    tr.Loop,
		PeriodS: tr.PeriodS,
	}
	for _, s := range tr.Samples {
		m := make([][]float64, n)
		for i := 0; i < n; i++ {
			m[i] = s.PerConnMbps[i][:n]
		}
		out.Samples = append(out.Samples, Sample{T: s.T, PerConnMbps: m})
	}
	return out, nil
}

// validate checks structural invariants shared by both file formats:
// at least two regions and one sample, finite sample times in strictly
// ascending order from 0, square per-sample matrices whose entries are
// finite and non-negative or NaN (no override), and a finite loop
// period past the last sample.
func (tr *Trace) validate() error {
	if tr.N() < 2 {
		return fmt.Errorf("tracesim: trace %q has %d regions, need at least 2", tr.Name, tr.N())
	}
	if len(tr.Samples) == 0 {
		return fmt.Errorf("tracesim: trace %q has no samples", tr.Name)
	}
	prev := math.Inf(-1)
	for k, s := range tr.Samples {
		if math.IsNaN(s.T) || math.IsInf(s.T, 0) {
			return fmt.Errorf("tracesim: trace %q sample %d has non-finite time %v", tr.Name, k, s.T)
		}
		if s.T < 0 {
			return fmt.Errorf("tracesim: trace %q sample %d has negative time %v", tr.Name, k, s.T)
		}
		if s.T <= prev {
			return fmt.Errorf("tracesim: trace %q sample times not strictly ascending at index %d", tr.Name, k)
		}
		prev = s.T
		if len(s.PerConnMbps) != tr.N() {
			return fmt.Errorf("tracesim: trace %q sample %d has %d rows for %d regions", tr.Name, k, len(s.PerConnMbps), tr.N())
		}
		for i, row := range s.PerConnMbps {
			if len(row) != tr.N() {
				return fmt.Errorf("tracesim: trace %q sample %d row %d has %d columns for %d regions", tr.Name, k, i, len(row), tr.N())
			}
			for j, v := range row {
				if v < 0 || math.IsInf(v, 0) {
					return fmt.Errorf("tracesim: trace %q sample %d pair %d->%d has rate %v (want finite and >= 0, or NaN for no override)", tr.Name, k, i, j, v)
				}
			}
		}
	}
	if tr.Loop && (math.IsInf(tr.PeriodS, 0) || !(tr.PeriodS > tr.DurationS())) {
		return fmt.Errorf("tracesim: trace %q loop period %.0fs must be finite and exceed last sample time %.0fs", tr.Name, tr.PeriodS, tr.DurationS())
	}
	return nil
}

// regionByName resolves a region name or provider code against the
// canonical testbed geography (RTTs and distances still come from
// coordinates, which traces do not carry).
func regionByName(name string) (geo.Region, error) {
	for _, r := range geo.Testbed() {
		if r.Name == name || r.Code == name {
			return r, nil
		}
	}
	return geo.Region{}, fmt.Errorf("tracesim: unknown region %q (traces use the canonical testbed names or codes)", name)
}

// --- JSON format ---

// jsonTrace is the on-disk JSON schema (DESIGN.md §1b): region names,
// loop settings and full per-sample matrices. Negative matrix entries
// mean "no override" (keep the geography-derived cap).
type jsonTrace struct {
	Name    string       `json:"name"`
	Regions []string     `json:"regions"`
	Loop    bool         `json:"loop,omitempty"`
	PeriodS float64      `json:"period_s,omitempty"`
	Samples []jsonSample `json:"samples"`
}

type jsonSample struct {
	T           float64     `json:"t"`
	PerConnMbps [][]float64 `json:"per_conn_mbps"`
}

// ParseJSON reads a JSON trace.
func ParseJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jt); err != nil {
		return nil, fmt.Errorf("tracesim: decode JSON trace: %w", err)
	}
	tr := &Trace{Name: jt.Name, Loop: jt.Loop, PeriodS: jt.PeriodS}
	for _, name := range jt.Regions {
		reg, err := regionByName(name)
		if err != nil {
			return nil, err
		}
		tr.Regions = append(tr.Regions, reg)
	}
	for _, s := range jt.Samples {
		m := make([][]float64, len(s.PerConnMbps))
		for i, row := range s.PerConnMbps {
			m[i] = make([]float64, len(row))
			for j, v := range row {
				if v < 0 {
					v = math.NaN() // no override
				}
				m[i][j] = v
			}
		}
		tr.Samples = append(tr.Samples, Sample{T: s.T, PerConnMbps: m})
	}
	if err := tr.validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// --- CSV format ---

// ParseCSV reads a long-form CSV trace: a `time_s,src,dst,per_conn_mbps`
// header followed by one row per (time, pair) observation — the shape
// cloud bandwidth collectors (iperf cron jobs) naturally emit. The
// value column is the single-connection achievable throughput the
// replay installs as the pair's cap. A `rate_mbps` header (the long
// form trace.Recorder writes) is accepted too: a recording of
// single-connection probes measures exactly that achievable rate, so
// record-then-replay round-trips; recordings of multi-connection or
// contended runs replay as a (pessimistic) per-connection cap. DC
// order is the order of first appearance of a region name; pairs
// omitted at a timestamp hold their previous value (pairs never
// mentioned keep the geography cap). A `NaN` value spells "no
// override" explicitly; a negative one is refused.
func ParseCSV(r io.Reader, name string) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("tracesim: read CSV trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("tracesim: CSV trace %q is empty", name)
	}
	want := []string{"time_s", "src", "dst", "per_conn_mbps"}
	for i, col := range want {
		got := ""
		if i < len(rows[0]) {
			got = strings.TrimSpace(rows[0][i])
		}
		if got == col || (i == 3 && got == "rate_mbps") {
			continue
		}
		return nil, fmt.Errorf("tracesim: CSV trace %q: header %v, want %v (or rate_mbps as written by trace.Recorder)", name, rows[0], want)
	}

	// First pass: region order by first appearance.
	index := map[string]int{}
	tr := &Trace{Name: name}
	for _, row := range rows[1:] {
		for _, cell := range row[1:3] {
			if _, ok := index[cell]; !ok {
				reg, err := regionByName(cell)
				if err != nil {
					return nil, err
				}
				index[cell] = len(tr.Regions)
				tr.Regions = append(tr.Regions, reg)
			}
		}
	}
	n := len(tr.Regions)

	// Second pass: group rows into samples, carrying values forward.
	type obs struct {
		t        float64
		src, dst int
		mbps     float64
	}
	var all []obs
	for k, row := range rows[1:] {
		t, err1 := strconv.ParseFloat(strings.TrimSpace(row[0]), 64)
		v, err2 := strconv.ParseFloat(strings.TrimSpace(row[3]), 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("tracesim: CSV trace %q row %d: bad numbers %q/%q", name, k+2, row[0], row[3])
		}
		all = append(all, obs{t: t, src: index[row[1]], dst: index[row[2]], mbps: v})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })

	current := make([][]float64, n)
	for i := range current {
		current[i] = make([]float64, n)
		for j := range current[i] {
			current[i][j] = math.NaN()
		}
	}
	flush := func(t float64) {
		m := make([][]float64, n)
		for i := range m {
			m[i] = append([]float64(nil), current[i]...)
		}
		tr.Samples = append(tr.Samples, Sample{T: t, PerConnMbps: m})
	}
	for k, o := range all {
		if k > 0 && o.t != all[k-1].t {
			flush(all[k-1].t)
		}
		current[o.src][o.dst] = o.mbps
	}
	if len(all) > 0 { // a header-only file has no regions: validate refuses it
		flush(all[len(all)-1].t)
	}
	if err := tr.validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Load reads a trace file, dispatching on the extension (.json or
// .csv). The trace name is the file's base name without extension.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracesim: %w", err)
	}
	defer f.Close()
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	switch strings.ToLower(filepath.Ext(base)) {
	case ".json":
		return ParseJSON(f)
	case ".csv":
		return ParseCSV(f, name)
	default:
		return nil, fmt.Errorf("tracesim: unsupported trace extension %q (want .json or .csv)", filepath.Ext(base))
	}
}
