package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// A simulator script is a fleet and a list of ops, the one source of
// random events in this package's tests. genScript draws one from a
// seed and a weighted op mix (simMixes, run by TestSimScripts);
// decodeScript reads any byte string as one (FuzzSimScript, whose
// committed inputs are regression seeds); a failing run logs its JSON,
// which TestSimScripts replays from testdata/scripts/. runScript plays
// a script and, after every op, checks:
//
//   - rates, cap slack and retransmissions are allocateReference's bit
//     for bit, the groups regroupReference's partition and the flow
//     rings the live flows (requireMatchesReference);
//   - the incremental counters match a rescan of the live flows;
//   - the rates are weighted max-min (requireMaxMin);
//   - no ramp boundary was consumed before its level was in place;
//
// and, as a mix asks (the fuzzer and the JSON replays ask both):
//
//   - every allocation refills as many groups as refillReference's old
//     rule, which sees each op and each ramp boundary before it applies
//     (refill);
//   - a twin that plays the script through stepOnce and RunUntil, its
//     table cache emptied before every allocation, agrees bit for bit,
//     also after refilling everything again (twin; refill implies it).
//
// Ops name flows by index modulo the live count, and VMs and DCs modulo
// the fleet's, so every script is valid. An op at a NaN instant, and
// Every with an interval that is not positive, must panic as the
// simulator documents (at, PartitionDC, Every) and leave both
// simulators as they were; any other panic fails.
type simScript struct {
	Fleet scriptFleet `json:"fleet"`
	Ops   []scriptOp  `json:"ops"`
}

// scriptFleet is FleetCluster's fleet of T2Medium VMs, on the testbed's
// first DCs instead of generated regions when Testbed is set.
type scriptFleet struct {
	DCs      int    `json:"dcs"`
	VMsPerDC int    `json:"vmsPerDC"`
	Seed     uint64 `json:"seed"`
	Testbed  bool   `json:"testbed,omitempty"`
	Frozen   bool   `json:"frozen,omitempty"`
}

func (f scriptFleet) config() Config {
	cfg := FleetCluster(f.DCs, f.VMsPerDC, substrate.T2Medium, f.Seed)
	if f.Testbed {
		cfg.Regions = geo.TestbedSubset(f.DCs)
	}
	cfg.Frozen = f.Frozen
	return cfg
}

// scriptOp is one op. Which fields it reads depends on Op:
//
//	start     Src→Dst VMs, N connections, X MB (0: a probe); with OnFlow,
//	          Src and Dst are offsets from live flow Flow's VMs within
//	          their DCs (Alt: from its reverse); with Below, skipped unless
//	          fewer flows are live
//	stop      live flow Flow
//	conns     SetConns(N) on live flow Flow
//	limit     SetPairLimit(X Mbps) on DC pair Src→Dst, or Flow's with OnFlow
//	clear     ClearPairLimit on that pair, or on every pair with Alt
//	cpu       SetCPULoad(X) on VM Src, or Flow's source (Alt: its
//	          destination) with OnFlow
//	cap       SetPerConnCap on a pair as limit names it, X × its cap now
//	fault     Fault through FaultSchedule.Apply, At and Until counted from
//	          now; with OnFlow a kill strikes Flow's source VM, a reset its
//	          DC pair and a partition its source DC
//	after     a no-op timer X seconds on
//	every     a no-op Every(X)
//	step      stepOnce(now + X)
//	run       RunFor(X)
//	boundary  a no-op timer at live flow Flow's ramp boundary N (0–2)
//	          plus X seconds, then RunUntil it
//
// With Burst set, the checks wait until after the next op, and the two
// share one allocation; a step, run or boundary op, which allocates
// first, runs them first.
type scriptOp struct {
	Op     string           `json:"op"`
	Flow   int              `json:"flow,omitempty"`
	Src    int              `json:"src,omitempty"`
	Dst    int              `json:"dst,omitempty"`
	N      int              `json:"n,omitempty"`
	X      num              `json:"x,omitempty"`
	OnFlow bool             `json:"onFlow,omitempty"`
	Alt    bool             `json:"alt,omitempty"`
	Below  int              `json:"below,omitempty"`
	Burst  bool             `json:"burst,omitempty"`
	Fault  *substrate.Fault `json:"fault,omitempty"`
}

// num is a float64 whose JSON can be NaN or infinite, as a string.
type num float64

func (x num) MarshalJSON() ([]byte, error) {
	if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
		return json.Marshal(strconv.FormatFloat(f, 'g', -1, 64))
	}
	return json.Marshal(float64(x))
}

func (x *num) UnmarshalJSON(b []byte) error {
	var s string
	if json.Unmarshal(b, &s) == nil {
		f, err := strconv.ParseFloat(s, 64)
		*x = num(f)
		return err
	}
	return json.Unmarshal(b, (*float64)(x))
}

// opJSON is a scriptOp whose fault's instants are nums. The fault keeps
// substrate.Fault's fields, so a dumped chaos schedule's entries read
// as fault ops.
type opJSON struct {
	plainOp
	Fault *faultJSON `json:"fault,omitempty"`
}

type plainOp scriptOp

type faultJSON struct {
	substrate.Fault
	At    num `json:"at"`
	Until num `json:"until,omitempty"`
}

func (o scriptOp) MarshalJSON() ([]byte, error) {
	w := opJSON{plainOp: plainOp(o)}
	if f := o.Fault; f != nil {
		w.Fault = &faultJSON{*f, num(f.At), num(f.Until)}
	}
	return json.Marshal(w)
}

func (o *scriptOp) UnmarshalJSON(b []byte) error {
	var w opJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*o = scriptOp(w.plainOp)
	if f := w.Fault; f != nil {
		f.Fault.At, f.Fault.Until = float64(f.At), float64(f.Until)
		o.Fault = &f.Fault
	}
	return nil
}

// The byte form: a five-byte fleet header (DCs − 2, VMs per DC − 1,
// flags 1 frozen and 2 testbed, seed little-endian in two bytes), then
// five bytes an op: kind and flags, Flow, a, b, c. Kinds are the low
// four bits modulo len(opKinds); an input cut short reads as zeros.
const (
	kStart = iota
	kStop
	kConns
	kLimit
	kClear
	kCPU
	kCap
	kKill
	kPartition
	kReset
	kAfter
	kEvery
	kStep
	kRun
	kBoundary

	fBurst  = 0x10
	fOnFlow = 0x20
	fAlt    = 0x40
	fBelow  = 0x80 // start: Below is the Flow byte
)

var opKinds = [...]string{kStart: "start", kStop: "stop", kConns: "conns", kLimit: "limit", kClear: "clear",
	kCPU: "cpu", kCap: "cap", kKill: "fault", kPartition: "fault", kReset: "fault",
	kAfter: "after", kEvery: "every", kStep: "step", kRun: "run", kBoundary: "boundary"}

// A byte below a table's length decodes to its special value, any
// other to a multiple of the unit.
var (
	specialInstants  = []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1)} // then 0.01 s steps
	specialDurations = []float64{math.NaN(), -0.1}                          // then 0.01 s steps
	specialDelays    = []float64{math.NaN(), -1, 0, math.Inf(1), math.Inf(-1)}
	boundaryDeltas   = []float64{0, 2e-10, 9e-10, -2e-10, -9e-10, 1.5e-9, -1.5e-9, 1e-3, -1e-3, math.NaN()}
)

func decodeValue(v int, special []float64, unit float64) float64 {
	if v < len(special) {
		return special[v]
	}
	return float64(v-len(special)) * unit
}

// decodeScript reads bytes as a script; every byte string is one.
func decodeScript(b []byte) simScript {
	at := func(i int) int {
		if i < len(b) {
			return int(b[i])
		}
		return 0
	}
	fl := scriptFleet{DCs: 2 + at(0)%11, VMsPerDC: 1 + at(1)%4, Frozen: at(2)&1 != 0, Testbed: at(2)&2 != 0, Seed: uint64(at(3) | at(4)<<8)}
	if fl.Testbed {
		fl.DCs = min(fl.DCs, len(geo.Testbed()))
	}
	sc := simScript{Fleet: fl}
	for i := 5; i < len(b); i += 5 {
		k, a, bb, c := at(i), at(i+2), at(i+3), at(i+4)
		kind := k & 15 % len(opKinds)
		o := scriptOp{Op: opKinds[kind], Flow: at(i + 1), Src: a, Dst: bb, Burst: k&fBurst != 0, OnFlow: k&fOnFlow != 0, Alt: k&fAlt != 0}
		switch kind {
		case kStart:
			o.N, o.X = 1+c&7, num(7*(c>>3))
			if k&fBelow != 0 {
				o.Below = o.Flow
			}
		case kConns:
			o.N = c % 11
		case kLimit:
			o.X = num(10 + 4*c)
		case kCPU:
			o.X = num(c) / 200
		case kCap:
			o.X = num(c) / 128
		case kKill:
			o.Fault = &substrate.Fault{Kind: substrate.FaultKillVM, VM: substrate.VMID(a), At: decodeValue(bb, specialInstants, 0.01)}
		case kPartition:
			from := decodeValue(bb, specialInstants, 0.01)
			o.Fault = &substrate.Fault{Kind: substrate.FaultPartitionDC, DC: a, At: from, Until: from + decodeValue(c, specialDurations, 0.01)}
		case kReset:
			o.Fault = &substrate.Fault{Kind: substrate.FaultResetPair, SrcDC: a, DstDC: bb, At: decodeValue(c, specialInstants, 0.01)}
		case kAfter, kEvery:
			o.X = num(decodeValue(c, specialDelays, 0.02))
		case kStep, kRun:
			o.X = num(c) / 100
		case kBoundary:
			o.N, o.X = a%3, num(boundaryDeltas[c%len(boundaryDeltas)])
		}
		sc.Ops = append(sc.Ops, o)
	}
	return sc
}

// draw is one entry of an op mix: a weight, a kind with its flags, and
// the ranges its b and c bytes are drawn from (a zero range is every
// byte; the Flow and a bytes are always uniform). A positive max bounds
// how often one run draws it.
type draw struct {
	w, kind, max int
	b, c         [2]int
}

// mix is one every-event test: its fleets, seeds and op mix, the
// checkers it adds, and the floors that keep them from passing
// vacuously.
type mix struct {
	name         string
	fleets       []scriptFleet // a run's seed is added to Seed
	seeds        []uint64
	events       int
	refill, twin bool
	// bursts draws a window of one to three ops between two checks, a
	// step only first.
	bursts bool
	// Before each event, topUps starts drawn from topUp that run only
	// while fewer than below flows are live (below of them before the
	// first).
	topUp         []draw
	topUps, below int
	open          func(g *scriptGen) // ops before the first event
	draws         []draw
	floors        floors
}

// floors are a mix's non-vacuity floors.
type floors struct {
	rampFast     bool // some ramp step took the fast path
	maxGroups    int  // some allocation had this many groups
	multiRefills int  // allocations that refilled more than one group
	reuseDiv     int  // fills that reused their tables ≥ fills/reuseDiv
	twinNoReuse  bool // the twin never reused a table
}

type scriptGen struct {
	rng   *simrand.Source
	fleet scriptFleet
	b     []byte
}

func (g *scriptGen) op(kind, flow, a, b, c int) {
	g.b = append(g.b, byte(kind), byte(flow), byte(a), byte(b), byte(c))
}

func (g *scriptGen) in(r [2]int) int {
	if r == [2]int{} {
		return g.rng.IntN(256)
	}
	return r[0] + g.rng.IntN(r[1]-r[0]+1)
}

func (g *scriptGen) emit(d draw, flags int) {
	g.op(d.kind|flags, g.rng.IntN(256), g.rng.IntN(256), g.in(d.b), g.in(d.c))
}

// cr is a draw whose c byte lies in [lo, hi].
func cr(w, kind, lo, hi int) draw { return draw{w: w, kind: kind, c: [2]int{lo, hi}} }

// genScript draws the byte form of a mix's run on one fleet and seed.
func genScript(m mix, fleet scriptFleet, seed uint64) []byte {
	fleet.Seed += seed
	g := &scriptGen{rng: simrand.Derive(seed, "script/"+m.name), fleet: fleet}
	flags := 0
	if fleet.Frozen {
		flags |= 1
	}
	if fleet.Testbed {
		flags |= 2
	}
	g.b = []byte{byte(fleet.DCs - 2), byte(fleet.VMsPerDC - 1), byte(flags), byte(fleet.Seed), byte(fleet.Seed >> 8)}
	if m.open != nil {
		m.open(g)
	}
	total := 0
	for _, d := range m.draws {
		total += d.w
	}
	drawn := make([]int, len(m.draws))
	for ev := 0; ev < m.events; ev++ {
		tops := m.topUps
		if ev == 0 {
			tops = m.below
		}
		for range tops {
			d := m.topUp[g.rng.IntN(len(m.topUp))]
			g.op(kStart|fBelow|fBurst, m.below, g.rng.IntN(256), g.rng.IntN(256), g.in(d.c))
		}
		n := 1
		if m.bursts {
			n = max(1, g.rng.IntN(4))
		}
		var window []draw
		for i := 0; i < n; i++ {
			k, r := 0, g.rng.IntN(total)
			for r >= m.draws[k].w {
				r -= m.draws[k].w
				k++
			}
			d := m.draws[k]
			if d.max > 0 && drawn[k] >= d.max || i > 0 && d.kind&15 == kStep {
				continue
			}
			if d.kind&15 == kStep {
				n = 1
			}
			drawn[k]++
			window = append(window, d)
		}
		for i, d := range window {
			flags := 0
			if i < len(window)-1 {
				flags = fBurst
			}
			g.emit(d, flags)
		}
	}
	return g.b
}

// churnDraws is the churn and sharded mix: two in five events start a
// flow (half of them probes; 1–8 connections, 7–196 MB), one in five
// stops one, the rest resize one, load a CPU, set (100–1000 Mbps) or
// clear a pair limit, or run for up to two seconds.
var churnDraws = []draw{cr(6, kStart, 0, 7), cr(6, kStart, 8, 231), cr(6, kStop, 0, 0), cr(3, kConns, 1, 10),
	cr(3, kCPU, 0, 199), cr(2, kLimit, 23, 247), cr(1, kClear, 0, 0), cr(3, kRun, 0, 199)}

// simMixes are the every-event tests.
var simMixes = []mix{{
	// The full invalidation surface on the testbed's first six DCs,
	// fluctuating.
	name: "churn", fleets: []scriptFleet{{DCs: 6, VMsPerDC: 1, Testbed: true}}, seeds: []uint64{1, 2, 3, 4, 7, 11, 13},
	events: 150, topUp: churnDraws[:2], topUps: 1, below: 1, draws: churnDraws, twin: true,
}, {
	// The same churn between random VMs of eight DCs × three: several
	// groups, refilled apart.
	name: "sharded", fleets: []scriptFleet{{DCs: 8, VMsPerDC: 3, Testbed: true}}, seeds: []uint64{1, 2, 3},
	events: 150, topUp: churnDraws[:2], topUps: 1, below: 1, draws: churnDraws, refill: true,
	floors: floors{maxGroups: 2, multiRefills: 1},
}, {
	// Ramp steps, which rampStep may absorb without a fill, among every
	// other event (stepping 0.02 s) on 12 DCs. With several VMs a DC, a
	// DC's pairs carry several VMs' flows, so an attribution summed over
	// the VM's DC pairs instead of its own flows fails.
	name: "rampstep", fleets: fleetGrid(12, []int{1, 2, 4}, []bool{true, false}), seeds: []uint64{1, 2, 3, 4},
	events: 500,
	open: func(g *scriptGen) {
		// Every first VM probes every other DC with one to three
		// connections; with four VMs a DC every other VM also sends
		// 7–35 MB to a random VM. A partition (0.04–0.35 s) and a kill
		// (0.6 s) land while those ramps still step.
		f, vms := g.fleet, g.fleet.DCs*g.fleet.VMsPerDC
		for k := range f.DCs * f.DCs {
			if i, j := k/f.DCs, k%f.DCs; i != j {
				g.op(kStart|fBurst, 0, i*f.VMsPerDC, j*f.VMsPerDC, g.rng.IntN(3))
			}
		}
		for v := 0; f.VMsPerDC > 2 && v < vms; v++ {
			if dst := g.rng.IntN(vms); v%f.VMsPerDC != 0 && dst != v {
				g.op(kStart|fBurst, 0, v, dst, g.rng.IntN(4)+8*(1+g.rng.IntN(5)))
			}
		}
		g.op(kPartition|fBurst, 0, g.rng.IntN(f.DCs), 8, 33)
		g.op(kKill, 0, g.rng.IntN(vms), 64, 0)
	},
	draws: []draw{cr(3, kStart, 0, 7), cr(3, kStart, 8, 47), cr(6, kStop, 0, 0), cr(6, kConns, 1, 6),
		cr(6, kCPU, 0, 199), cr(4, kLimit, 3, 102), cr(2, kClear, 0, 0), cr(6, kCap, 64, 192),
		cr(6, kReset, 4, 4), cr(102, kStep, 2, 2)},
	floors: floors{rampFast: true},
}, {
	// Every event the simulator has on fluctuating multi-VM fleets, in
	// windows of one to three between two allocations (a finish and a
	// start in one window merge a group still to be re-derived); starts
	// beside a live flow, or on its DC pair, link and unlink groups
	// through pair limits.
	name:   "groups",
	fleets: append(fleetGrid(5, []int{2, 3}, []bool{false}), fleetGrid(10, []int{2, 3}, []bool{false})...),
	seeds:  []uint64{1, 2, 3, 4}, events: 600, bursts: true, refill: true,
	topUp: []draw{cr(1, kStart, 0, 4), cr(1, kStart, 8, 36)}, topUps: 1, below: 4,
	draws: []draw{cr(4, kStart, 0, 4), cr(4, kStart, 8, 36), cr(4, kStart|fOnFlow, 0, 4), cr(4, kStart|fOnFlow, 8, 36),
		cr(4, kStart|fOnFlow|fAlt, 0, 4), cr(4, kStart|fOnFlow|fAlt, 8, 36), cr(12, kStop, 0, 0), cr(6, kConns, 1, 5),
		cr(12, kLimit|fOnFlow, 0, 75), cr(3, kClear, 0, 0), cr(3, kClear|fOnFlow, 0, 0), cr(6, kCPU, 0, 199), cr(6, kCPU|fOnFlow, 0, 199),
		cr(6, kCap, 64, 192), cr(6, kReset|fOnFlow, 4, 4), cr(60, kStep, 3, 3),
		{w: 6, kind: kKill | fOnFlow, b: [2]int{4, 9}, max: 2},       // 0–0.05 s on
		{w: 6, kind: kPartition, b: [2]int{4, 4}, c: [2]int{7, 27}}}, // 0.05–0.25 s long
	floors: floors{reuseDiv: 20},
}, {
	// Runs of value-only events (CPU load, cap overrides, fluctuation
	// ticks, ramp boundaries, partitions beginning and healing) between
	// structure events, at least 12 flows live: a table kept one event
	// too long shows here.
	name: "tablereuse", fleets: fleetGrid(6, []int{1, 2}, []bool{false}), seeds: []uint64{1, 2, 3, 4},
	events: 400, topUp: []draw{cr(1, kStart, 0, 5), cr(1, kStart, 8, 69)}, topUps: 3, below: 12,
	open: func(g *scriptGen) { g.op(kKill|fBurst, 0, 1, 254, 0) }, // VM 1 at 2.5 s
	draws: []draw{cr(2, kStart, 0, 5), cr(2, kStart, 8, 69), cr(4, kStop, 0, 0), cr(4, kConns, 1, 6),
		cr(4, kLimit|fOnFlow, 0, 75), cr(3, kClear|fOnFlow, 0, 0), cr(1, kClear|fAlt, 0, 0),
		cr(6, kCPU|fOnFlow, 0, 199), cr(6, kCPU|fOnFlow|fAlt, 0, 199), cr(8, kCap|fOnFlow, 64, 192),
		cr(36, kStep, 5, 5), {w: 4, kind: kPartition, b: [2]int{4, 4}, c: [2]int{7, 27}}},
	twin: true, floors: floors{reuseDiv: 4, twinNoReuse: true},
}}

// fleetGrid is a generated fleet of dcs DCs for each VM count and
// freezing, seeded 2025 + the run's seed.
func fleetGrid(dcs int, vms []int, frozen []bool) (out []scriptFleet) {
	for _, v := range vms {
		for _, fr := range frozen {
			out = append(out, scriptFleet{DCs: dcs, VMsPerDC: v, Seed: 2025, Frozen: fr})
		}
	}
	return out
}

// TestSimScripts runs every mix on each of its fleets and seeds, then
// its floors; and every script saved under testdata/scripts/ (a failing
// run's logged JSON, or a chaos schedule's faults as fault ops).
func TestSimScripts(t *testing.T) {
	for _, m := range simMixes {
		for _, fl := range m.fleets {
			for _, seed := range m.seeds {
				t.Run(fmt.Sprintf("%s/dcs%d/vms%d/frozen=%v/seed%d", m.name, fl.DCs, fl.VMsPerDC, fl.Frozen, seed), func(t *testing.T) {
					t.Parallel()
					runScript(t, decodeScript(genScript(m, fl, seed)), m.refill, m.twin).requireFloors(m.floors)
				})
			}
		}
	}
	files, _ := filepath.Glob(filepath.Join("testdata", "scripts", "*.json"))
	for _, file := range files {
		t.Run("json/"+strings.TrimSuffix(filepath.Base(file), ".json"), func(t *testing.T) {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var sc simScript
			if err := json.Unmarshal(b, &sc); err != nil {
				t.Fatal(err)
			}
			runScript(t, sc, true, true)
		})
	}
}

// FuzzSimScript decodes its input as a script and runs it with every
// checker. Its JSON must read back as itself, so a failure's log
// replays.
func FuzzSimScript(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		sc := decodeScript(b)
		js, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var back simScript
		if err := json.Unmarshal(js, &back); err != nil {
			t.Fatal(err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, js) {
			t.Fatalf("JSON does not read back:\n%s\n%s", js, again)
		}
		runScript(t, sc, true, true)
	})
}

// harness plays one script: sims[0] is the simulator under test, whose
// events the refill reference sees; sims[1], if any, the twin.
type harness struct {
	t       *testing.T
	sc      simScript
	refill  bool
	sims    []*Sim
	live    [2][]*Flow // the same flows in each
	ref     refillReference
	op      int    // index of the op being played
	pending []int8 // requireRampLevels' count by flow id

	fills, maxGroups, multiRefills int
}

// runScript plays sc, checking after every op but a burst's.
func runScript(t *testing.T, sc simScript, refill, twin bool) *harness {
	t.Helper()
	cfg := sc.Fleet.config()
	h := &harness{t: t, sc: sc, refill: refill, sims: []*Sim{NewSim(cfg)},
		ref: refillReference{root: map[VMID]VMID{}, dirtyRoots: map[VMID]bool{}}}
	if refill || twin {
		h.sims = append(h.sims, NewSim(cfg))
	}
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: unexpected panic: %v\n%s", h.when(), r, debug.Stack())
		}
		if t.Failed() {
			js, _ := json.Marshal(sc)
			t.Logf("script: %s", js)
		}
	}()
	burst := false
	for i, o := range sc.Ops {
		h.op = i
		if stepping := o.Op == "step" || o.Op == "run" || o.Op == "boundary"; burst && stepping {
			h.check()
		}
		h.apply(o)
		if burst = o.Burst; !burst {
			h.check()
		}
	}
	if burst {
		h.check()
	}
	return h
}

func (h *harness) when() string {
	return fmt.Sprintf("op %d at t=%.9f", h.op, h.sims[0].now)
}

func (h *harness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s: %s", h.when(), fmt.Sprintf(format, args...))
}

// apply plays o on both simulators, the refill reference seeing it
// first, or requires both to panic as documented and be left as they
// were.
func (h *harness) apply(o scriptOp) {
	tg := h.resolve(o)
	if !tg.ok {
		return
	}
	if want := h.wantPanic(o, tg); want != "" {
		for i, s := range h.sims {
			footprint := func() string {
				dead := 0
				for _, v := range s.vms {
					if v.dead {
						dead++
					}
				}
				return fmt.Sprint(len(s.timers), len(s.ramps), len(s.flows), dead, s.partActive, s.vmConns, s.allocDirty)
			}
			before := footprint()
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), want) {
						h.fatalf("%+v panicked with %v, want %q", o, r, want)
					}
				}()
				h.do(i, o, tg)
			}()
			if after := footprint(); after != before {
				h.fatalf("%+v panicked but took effect: %s, then %s", o, before, after)
			}
		}
		return
	}
	if h.refill {
		h.dirt(o, tg)
	}
	for i := range h.sims {
		h.do(i, o, tg)
		h.sweep(i)
	}
}

// target is what an op names, resolved on sims[0]: the twin has the
// same VMs, DCs and live flows in the same order.
type target struct {
	ok       bool // false: the op is skipped
	flow     int  // live flow Flow, when one is live
	src, dst VMID // a start's endpoints; cpu's VM is src
	pairs    [][2]int
	fault    substrate.Fault // absolute instants
}

// resolve resolves o. An op that names a live flow when none is live
// is skipped, and so is a start while Below flows are; a start to its
// own source goes to the next VM, a DC pair to itself to the next DC.
func (h *harness) resolve(o scriptOp) (tg target) {
	s, live := h.sims[0], h.live[0]
	nv, nd := s.NumVMs(), s.NumDCs()
	var f *Flow
	if len(live) > 0 {
		tg.flow = mod(o.Flow, len(live))
		f = live[tg.flow]
	}
	if f == nil && (o.OnFlow || o.Op == "stop" || o.Op == "conns" || o.Op == "boundary") {
		return tg
	}
	tg.ok = o.Below == 0 || len(live) < o.Below
	tg.src, tg.dst = VMID(mod(o.Src, nv)), VMID(mod(o.Dst, nv))
	pair := func(src, dst int) [2]int {
		if src, dst = mod(src, nd), mod(dst, nd); src == dst {
			dst = (dst + 1) % nd
		}
		return [2]int{src, dst}
	}
	tg.pairs = [][2]int{pair(o.Src, o.Dst)}
	if o.OnFlow {
		a, b := f.src, f.dst
		if o.Alt {
			a, b = b, a
		}
		tg.src, tg.dst = a, beside(s, b, o.Dst)
		if o.Op == "start" {
			tg.src = beside(s, a, o.Src)
		}
		tg.pairs = [][2]int{{int(f.srcDC), int(f.dstDC)}}
	}
	if tg.src == tg.dst {
		tg.dst = VMID(mod(int(tg.dst)+1, nv))
	}
	if o.Op == "clear" && o.Alt {
		tg.pairs = nil
		for k := range nd * nd {
			tg.pairs = append(tg.pairs, [2]int{k / nd, k % nd})
		}
	}
	if o.Op == "fault" {
		if tg.ok = o.Fault != nil; !tg.ok {
			return tg
		}
		ft := *o.Fault
		ft.VM, ft.DC, ft.At, ft.Until = substrate.VMID(mod(int(ft.VM), nv)), mod(ft.DC, nd), s.now+ft.At, s.now+ft.Until
		p := pair(ft.SrcDC, ft.DstDC)
		if o.OnFlow {
			ft.VM, ft.DC, p = f.src, int(f.srcDC), tg.pairs[0]
		}
		ft.SrcDC, ft.DstDC = p[0], p[1]
		tg.fault = ft
	}
	return tg
}

// beside returns the VM off places after v among its DC's VMs.
func beside(s *Sim, v VMID, off int) VMID {
	vms := s.vmsOfDC[s.vms[v].dc]
	return vms[mod(slices.Index(vms, v)+off, len(vms))]
}

func mod(x, n int) int { return (x%n + n) % n }

// wantPanic returns the panic o must raise: at's at a NaN instant,
// PartitionDC's at a NaN bound, Every's at a non-positive interval.
func (h *harness) wantPanic(o scriptOp, tg target) string {
	const nanTimer = "netsim: a timer at a NaN instant"
	f := tg.fault
	switch {
	case o.Op == "every" && !(o.X > 0):
		return "netsim: Every needs a positive interval"
	case (o.Op == "after" || o.Op == "boundary") && math.IsNaN(float64(o.X)):
		return nanTimer
	case o.Op != "fault":
	case f.Kind == substrate.FaultPartitionDC && (math.IsNaN(f.At) || math.IsNaN(f.Until)):
		return "netsim: a partition with a NaN bound"
	case (f.Kind == substrate.FaultKillVM || f.Kind == substrate.FaultResetPair) && math.IsNaN(f.At):
		return nanTimer
	}
	return ""
}

var rampFracs = [...]float64{1.0 / 3, 2.0 / 3, 1} // addFlow's

// do plays o on sims[i].
func (h *harness) do(i int, o scriptOp, tg target) {
	s, live := h.sims[i], &h.live[i]
	var f *Flow
	if len(*live) > 0 {
		f = (*live)[tg.flow]
	}
	p, x := tg.pairs[0], float64(o.X)
	switch o.Op {
	case "start":
		if x > 0 {
			f = s.startFlow(tg.src, tg.dst, o.N, x*1e6, nil)
		} else {
			f = s.startProbe(tg.src, tg.dst, o.N)
		}
		if !f.done { // born failed at a dead VM
			*live = append(*live, f)
		}
	case "stop":
		f.Stop()
	case "conns":
		f.SetConns(o.N)
	case "limit":
		s.SetPairLimit(p[0], p[1], x)
	case "clear":
		for _, p := range tg.pairs {
			s.ClearPairLimit(p[0], p[1])
		}
	case "cpu":
		s.SetCPULoad(tg.src, x)
	case "cap":
		s.SetPerConnCap(p[0], p[1], s.PerConnCapMbps(p[0], p[1])*x)
	case "fault":
		substrate.FaultSchedule{tg.fault}.Apply(s)
	case "after":
		s.After(x, func(float64) {})
	case "every":
		s.Every(x, func(float64) {})
	case "step":
		h.stepOnce(i, s.now+x)
	case "run":
		h.runUntil(i, s.now+x)
	case "boundary":
		at := f.startedAt + float64(f.rampS*rampFracs[mod(o.N, 3)]) + x
		s.at(at, func(float64) {})
		h.runUntil(i, at)
	}
}

// dirt shows the refill reference what o is about to dirty, read from
// the state before it applies. Flows that finish are dirtied by sweep.
func (h *harness) dirt(o scriptOp, tg target) {
	s, r := h.sims[0], &h.ref
	dirtyPairs := func() {
		for _, p := range tg.pairs {
			if q := s.lookupPair(p[0], p[1]); q != nil && (o.Op != "clear" || !math.IsNaN(q.limit)) {
				for _, f := range q.flows {
					r.dirty(f.src)
				}
			}
		}
	}
	switch p := tg.pairs[0]; o.Op {
	case "start":
		if s.VMAlive(tg.src) && s.VMAlive(tg.dst) {
			r.dirty(tg.src)
			r.dirty(tg.dst)
		}
	case "conns":
		if f := h.live[0][tg.flow]; max(o.N, 1) != int(f.conns) {
			r.dirty(f.src)
		}
	case "limit", "clear":
		dirtyPairs()
	case "cap":
		if c := s.PerConnCapMbps(p[0], p[1]); math.Max(0, c*float64(o.X)) != c {
			dirtyPairs()
		}
	case "cpu":
		if s.vmConns[tg.src] > 0 && s.vms[tg.src].cpuLoad != math.Max(0, math.Min(1, float64(o.X))) {
			r.dirty(tg.src)
		}
	case "fault":
		if f := tg.fault; f.Kind == substrate.FaultPartitionDC && f.At <= s.now && f.Until > f.At &&
			s.partActive[f.DC] == 0 && s.interDCFlow > 0 {
			r.dirtyAll = true
		}
	}
}

// sweep drops sims[i]'s finished flows from its live list; the refill
// reference sees each of sims[0]'s as an event at its VMs.
func (h *harness) sweep(i int) {
	kept := h.live[i][:0]
	for _, f := range h.live[i] {
		if !f.done {
			kept = append(kept, f)
		} else if i == 0 && h.refill {
			h.ref.dirty(f.src)
			h.ref.dirty(f.dst)
		}
	}
	h.live[i] = kept
}

// stepOnce is sims[i].stepOnce. Under refill, sims[0] steps
// through a copy of it, so that the refill reference sees each
// allocation, each timer and each ramp boundary; keep the copy in step
// with Sim.stepOnce (the twin fails if it is not).
func (h *harness) stepOnce(i int, limit float64) {
	s := h.sims[i]
	if i == 1 || !h.refill {
		s.stepOnce(limit)
		return
	}
	const eps = 1e-9
	h.sweep(0)
	h.allocate()
	next := limit
	for _, f := range s.flows {
		if f.Probe() || f.rate <= 0 {
			continue
		}
		if tc := s.now + f.remainingBits/(f.rate*1e6); tc < next {
			next = tc
		}
	}
	if at, _, ok := s.nextEvent(); ok && at < next {
		next = at
	}
	if next < s.now {
		next = s.now
	}
	s.advanceTo(next)
	for {
		at, ramp, ok := s.nextEvent()
		if !ok || at > s.now+eps {
			return
		}
		if ramp {
			f, fast := s.ramps.pop().x, s.rampFast
			s.rampStep(f)
			if !f.done && s.rampFast == fast {
				h.ref.dirty(f.src)
			}
		} else {
			s.timers.pop().x(s.now)
			h.ref.dirtyAll = h.ref.dirtyAll || s.groups.dirtyAll
		}
	}
}

// runUntil is sims[i].RunUntil, through stepOnce above.
func (h *harness) runUntil(i int, t float64) {
	s := h.sims[i]
	if i == 1 || !h.refill {
		s.RunUntil(t)
		return
	}
	for s.now < t {
		h.stepOnce(0, t)
	}
}

// allocate allocates sims[0] if an event left it dirty and, under
// refill, requires the refill reference's group and refill counts.
func (h *harness) allocate() {
	s := h.sims[0]
	if !s.allocDirty {
		return
	}
	var wantGroups, wantRefilled int
	if h.refill {
		wantGroups, wantRefilled = h.ref.allocate(s)
	}
	s.ensureAllocated()
	h.fills++
	groups, refilled := s.AllocGroups()
	if h.refill && (groups != wantGroups || refilled != wantRefilled) {
		h.fatalf("%d groups, %d refilled; the old rule has %d, %d", groups, refilled, wantGroups, wantRefilled)
	}
	h.maxGroups = max(h.maxGroups, groups)
	if groups > 1 && refilled > 1 {
		h.multiRefills++
	}
}

// check runs the run's checkers.
func (h *harness) check() {
	s := h.sims[0]
	h.allocate()
	when := h.when()
	requireMatchesReference(h.t, s, when)
	h.requireCounters()
	requireMaxMin(h.t, s, when)
	h.requireRampLevels()
	if len(h.sims) == 1 {
		return
	}
	twin := h.sims[1]
	twin.scratch.builtVer = 0
	twin.ensureAllocated()
	h.requireTwin()
	// Refilling everything on unchanged inputs reproduces the rates:
	// the scratch slabs keep no state from one fill to the next.
	twin.invalidate()
	twin.scratch.builtVer = 0
	twin.ensureAllocated()
	h.requireTwin()
}

// requireCounters checks the incrementally maintained per-VM connection
// counts, per-pair flow lists and inter-DC flow count against a rescan
// of the live flows.
func (h *harness) requireCounters() {
	s := h.sims[0]
	n := s.NumDCs()
	conns, pairs, interDC := make([]int, s.NumVMs()), make([]int, n*n), 0
	for _, f := range s.flows {
		conns[f.src] += int(f.conns)
		conns[f.dst] += int(f.conns)
		pairs[s.pairKey(int(f.srcDC), int(f.dstDC))]++
		if f.srcDC != f.dstDC {
			interDC++
		}
	}
	if !slices.Equal(s.vmConns, conns) || s.interDCFlow != interDC {
		h.fatalf("vmConns %v interDCFlow %d, a rescan says %v and %d", s.vmConns, s.interDCFlow, conns, interDC)
	}
	for k, want := range pairs {
		got := 0
		if p := s.lookupPair(k/n, k%n); p != nil {
			got = len(p.flows)
			if s.pairByIdx(p.idx) != p || s.pairAt[k] != p.idx+1 {
				h.fatalf("pair %d: record ordinal %d, pairAt %d", k, p.idx, s.pairAt[k])
			}
		}
		if got != want {
			h.fatalf("pair %d has %d flows, a rescan says %d", k, got, want)
		}
	}
}

// requireMaxMin checks that the allocation is weighted max-min, from
// first principles rather than from the fill: no flow exceeds its cap,
// which stays inside conns × the pair's per-connection cap × its
// fluctuation; no VM NIC (past the congestion knee) or pair limit
// carries more than its capacity; and every flow is held either by its
// own cap or by a saturated resource on which no flow has a larger rate
// per weight. Saturation and the bounds hold within maxMinTol of the
// capacity, ten times the fill's own saturation test (allocEps).
func requireMaxMin(t *testing.T, s *Sim, when string) {
	t.Helper()
	const maxMinTol = 10 * allocEps
	near := func(c float64) float64 { return maxMinTol * max(1, math.Abs(c)) }
	// Resources: VM v's egress 2v and ingress 2v+1, then pair limits by
	// the pair's ordinal.
	nv := len(s.vms)
	capOf := make([]float64, 2*nv+s.numPairs)
	use := make([]float64, len(capOf))
	top := make([]float64, len(capOf)) // largest rate per weight
	for v, vm := range s.vms {
		cong := s.congFactor(VMID(v))
		capOf[2*v], capOf[2*v+1] = vm.spec.EgressMbps*cong, vm.spec.IngressMbps*cong
	}
	// crosses returns the resources f crosses and its rate per weight.
	crosses := func(f *Flow) (rs [3]int, k int, level float64) {
		p := s.flowPair(f)
		rs, k = [3]int{2 * int(f.src), 2*int(f.dst) + 1}, 2
		if !math.IsNaN(p.limit) {
			capOf[2*nv+int(p.idx)] = p.limit
			rs[2], k = 2*nv+int(p.idx), 3
		}
		return rs, k, f.rate / (float64(f.conns) / p.biasPow)
	}
	for _, f := range s.flows {
		p := s.flowPair(f)
		envelope := float64(f.conns) * p.connBase
		if p.fluct != nil {
			envelope *= p.fluct.factor()
		}
		if !(f.rate >= 0) || f.rate > f.capMbps+near(f.capMbps) || f.capMbps > envelope+near(envelope) {
			t.Fatalf("%s: flow #%d rate %v, cap %v, envelope %v", when, f.id, f.rate, f.capMbps, envelope)
		}
		rs, k, level := crosses(f)
		for _, r := range rs[:k] {
			use[r] += f.rate
			top[r] = max(top[r], level)
		}
	}
	for r, u := range use {
		if u > capOf[r]+near(capOf[r]) {
			t.Fatalf("%s: resource %d carries %v of %v", when, r, u, capOf[r])
		}
	}
	for _, f := range s.flows {
		held := f.rate >= f.capMbps-near(f.capMbps)
		rs, k, level := crosses(f)
		for _, r := range rs[:k] {
			held = held || use[r] >= capOf[r]-near(capOf[r]) && top[r] <= level*(1+maxMinTol)
		}
		if !held {
			t.Fatalf("%s: flow #%d (vm %d->%d) at %v of cap %v is held by neither its cap nor a saturated resource it tops",
				when, f.id, f.src, f.dst, f.rate, f.capMbps)
		}
	}
}

// requireRampLevels requires every live flow's slow-start level to be
// in place for each of its ramp boundaries the event loop consumed.
func (h *harness) requireRampLevels() {
	s := h.sims[0]
	if n := int(s.nextFlowID); len(h.pending) < n {
		h.pending = make([]int8, 2*n)
	}
	for _, ev := range s.ramps {
		h.pending[ev.x.id]++
	}
	m := s.rampMinFactor
	levels := [...]float64{m, m + float64((1-m)*0.45), m + float64((1-m)*0.75), 1}
	for _, f := range s.flows {
		if left := int(h.pending[f.id]); f.rampS > 0 && slices.Index(levels[:], s.rampFactor(f)) < 3-left {
			h.fatalf("flow #%d consumed %d ramp boundaries at level %v", f.id, 3-left, s.rampFactor(f))
		}
	}
	for _, ev := range s.ramps {
		h.pending[ev.x.id] = 0
	}
}

// requireTwin requires the twin's state, bytes sent included, to be
// sims[0]'s bit for bit, and every pair that carries flows to hold its
// current fluctuation factor.
func (h *harness) requireTwin() {
	s, twin := h.sims[0], h.sims[1]
	if twin.now != s.now || len(twin.flows) != len(s.flows) {
		h.fatalf("the twin is at t=%v with %d flows, for %d", twin.now, len(twin.flows), len(s.flows))
	}
	for i, f := range s.flows {
		g := twin.flows[i]
		if f.id != g.id || math.Float64bits(f.rate) != math.Float64bits(g.rate) || math.Float64bits(f.capMbps) != math.Float64bits(g.capMbps) ||
			f.capSlack != g.capSlack || math.Float64bits(f.sentBits) != math.Float64bits(g.sentBits) {
			h.fatalf("flow #%d rate/cap/slack/sent %v/%v/%v/%v, the twin's #%d %v/%v/%v/%v",
				f.id, f.rate, f.capMbps, f.capSlack, f.sentBits, g.id, g.rate, g.capMbps, g.capSlack, g.sentBits)
		}
		if p := s.flowPair(f).fluct; p != nil && p.factor() != math.Exp(p.x)*p.spikeDepth {
			h.fatalf("pair %d->%d carries flows but its stored factor %v is stale (%v)", f.srcDC, f.dstDC, p.factor(), math.Exp(p.x)*p.spikeDepth)
		}
	}
	for v := range s.vms {
		if math.Float64bits(s.vms[v].lastRetrans) != math.Float64bits(twin.vms[v].lastRetrans) {
			h.fatalf("vm %d retrans %v, the twin's %v", v, s.vms[v].lastRetrans, twin.vms[v].lastRetrans)
		}
	}
}

func (h *harness) requireFloors(fl floors) {
	s := h.sims[0]
	h.t.Logf("%d ops, %d allocations, %d reused their tables, %d ramp steps absorbed, %d groups at most",
		len(h.sc.Ops), h.fills, s.scratch.reused, s.rampFast, h.maxGroups)
	switch {
	case fl.rampFast && s.rampFast == 0:
		h.t.Fatal("no ramp step took the fast path: the equivalence is vacuous")
	case h.maxGroups < fl.maxGroups:
		h.t.Fatalf("at most %d groups, want %d", h.maxGroups, fl.maxGroups)
	case h.multiRefills < fl.multiRefills:
		h.t.Fatalf("%d allocations refilled more than one group, want %d", h.multiRefills, fl.multiRefills)
	case fl.reuseDiv > 0 && s.scratch.reused < h.fills/fl.reuseDiv:
		h.t.Fatalf("%d of %d allocations reused their tables, want 1/%d", s.scratch.reused, h.fills, fl.reuseDiv)
	case fl.twinNoReuse && h.sims[1].scratch.reused != 0:
		h.t.Fatalf("the twin reused tables %d times with its cache emptied before every allocation", h.sims[1].scratch.reused)
	}
}
