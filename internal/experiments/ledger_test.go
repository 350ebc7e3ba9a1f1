package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ledgerSeeds is how many seeds TestLedger runs: the golden seeds
// 1–3 in tier-1, whose runs TestGolden already made, and seeds 1–20
// under the ledger build tag (ledger_seeds_test.go). The verdicts are
// judged over every seed testdata/ledger.tsv records.
var ledgerSeeds = goldenSeeds

const (
	ledgerValues = "ledger.tsv" // under testdata/
	ledgerDoc    = "../../EXPERIMENTS.md"
	ledgerBegin  = "<!-- ledger: rendered by TestLedger from internal/experiments/ledger.go and testdata/ledger.tsv; do not edit by hand -->"
	ledgerEnd    = "<!-- end ledger -->"
)

// on adapts an extractor over one driver's typed result.
func on[R Result](f func(R) float64) func(Result) float64 {
	return func(r Result) float64 { return f(r.(R)) }
}

// holds is an ordering claim's value: 1 when the ordering holds.
func holds(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// ledgerKey names a ledger row in extractors and testdata/ledger.tsv.
func ledgerKey(c claim) string { return c.id + "\t" + c.stat }

// extractors reads every ledger row off its driver's result.
var extractors = map[string]func(Result) float64{
	"fig1\tUS East→US West (Mbps)": on(func(r *Fig1Result) float64 { return r.BW[0][1] }),
	"fig1\tUS East→AP SE (Mbps)":   on(func(r *Fig1Result) float64 { return r.BW[0][3] }),
	"table1\tsignificant gaps":     on(func(r *Table1Result) float64 { return float64(r.Significant) }),
	"table1\tslowest DC from SA East flips": on(func(r *Table1Result) float64 {
		return holds(r.SlowestFromSAEStatic != r.SlowestFromSAERuntime)
	}),
	"table2\tprediction saving (%)":            on(func(r *Table2Result) float64 { return r.Savings * 100 }),
	"table2\t8-DC monitoring ($/yr)":           on(func(r *Table2Result) float64 { return r.Rows[len(r.Rows)-1].RuntimeMonitoring }),
	"fig2\theterogeneous ÷ uniform min BW (×)": on(func(r *Fig2Result) float64 { return r.MinHet / r.MinUniform }),
	"table4\tmean min-BW gain (×)":             on(func(r *Table4Result) float64 { return r.MinBWRatio }),
	"table4\tsnapshot monitoring saving (%)": on(func(r *Table4Result) float64 {
		return pct(r.MonitoringSimultaneousUSD, r.MonitoringPredictedUSD)
	}),
	"fig4\tSAGQ faster than NoQ (%)": on(func(r *Fig4Result) float64 { return fig4Gain(r, "NoQ", "SAGQ") }),
	"fig4\tWQ faster than SAGQ (%)":  on(func(r *Fig4Result) float64 { return fig4Gain(r, "SAGQ", "WQ") }),
	"fig5\tWANify-TC best on latency, cost, min BW": on(func(r *Fig5Result) float64 {
		tc := r.Rows[slices.IndexFunc(r.Rows, func(row Fig5Row) bool { return row.Variant == variantThrottle })]
		for _, row := range r.Rows {
			if row.Variant != variantThrottle && (row.JCTMin <= tc.JCTMin || row.CostUSD <= tc.CostUSD || row.MinBWMbps >= tc.MinBWMbps) {
				return 0
			}
		}
		return 1
	}),
	"fig6\tspeed-up at 2.06 MB/pair (×)": on(func(r *Fig6Result) float64 { return r.Rows[0].VanillaJCT / r.Rows[0].WANifyJCT }),
	"fig6\tfaster above 7.4 MB/pair": on(func(r *Fig6Result) float64 {
		return holds(!slices.ContainsFunc(r.Rows, func(row Fig6Row) bool { return row.ShuffleMB > 7.4 && row.WANifyJCT >= row.VanillaJCT }))
	}),
	"fig7\tTetrium best latency gain (%)": on(func(r *Fig7Result) float64 {
		return fig7Best(r, func(row Fig7Row) float64 { return pct(row.VanillaJCT, row.WANifyJCT) })
	}),
	"fig7\tTetrium best cost saving (%)": on(func(r *Fig7Result) float64 {
		return fig7Best(r, func(row Fig7Row) float64 { return pct(row.VanillaCost, row.WANifyCost) })
	}),
	"fig7\tTetrium best min-BW gain (×)": on(func(r *Fig7Result) float64 {
		return fig7Best(r, func(row Fig7Row) float64 { return row.MinBWRatio })
	}),
	"fig8a\tTetrium global-only gain (%)": on(func(r *Fig8aResult) float64 { return fig8aGain(r, "global-only") }),
	"fig8a\tTetrium local-only gain (%)":  on(func(r *Fig8aResult) float64 { return fig8aGain(r, "local-only") }),
	"fig8a\tTetrium full gain (%)":        on(func(r *Fig8aResult) float64 { return fig8aGain(r, "wanify") }),
	"fig8a\tglobal-only beats local-only": on(func(r *Fig8aResult) float64 {
		return holds(fig8aGain(r, "global-only") > fig8aGain(r, "local-only"))
	}),
	"fig8b\tlatency change (%)":               on(func(r *Fig8bResult) float64 { return -pct(r.WANifyJCT, r.ErrJCT) }),
	"fig8b\tcost change (%)":                  on(func(r *Fig8bResult) float64 { return -pct(r.WANifyCost, r.ErrCost) }),
	"fig8b\tmin-BW change (%)":                on(func(r *Fig8bResult) float64 { return -pct(r.WANifyMinBW, r.ErrMinBW) }),
	"fig9\tsignificant deltas":                on(func(r *Fig9Result) float64 { return float64(r.SigDeltasWithErr) }),
	"fig10\tTetrium-W vs Tetrium latency (%)": on(func(r *Fig10Result) float64 { return fig10Change(r, "single") }),
	"fig10\tTetrium-W vs -P latency (%)":      on(func(r *Fig10Result) float64 { return fig10Change(r, "uniform-p") }),
	"fig10\tTetrium-W vs -WNS latency (%)":    on(func(r *Fig10Result) float64 { return fig10Change(r, "wanify-wns") }),
	"fig11a\tpredicted beats static at every size": on(func(r *Fig11aResult) float64 {
		return holds(!slices.ContainsFunc(r.Rows, func(row Fig11aRow) bool { return row.PredictedSig >= row.StaticSig }))
	}),
	"fig11b\tpredicted beats static at every VM count": on(func(r *Fig11bResult) float64 {
		return holds(!slices.ContainsFunc(r.Rows, func(row Fig11bRow) bool { return row.PredictedSig >= row.StaticSig }))
	}),
	"sec583\tTetrium-r latency gain (%)": on(func(r *Sec583Result) float64 { return pct(r.VanillaJCT, r.TetriumRJCT) }),
	"sec583\tTetrium-r cost saving (%)":  on(func(r *Sec583Result) float64 { return pct(r.VanillaCost, r.TetriumRCost) }),
	"sec583\tTetrium-r min-BW gain (×)":  on(func(r *Sec583Result) float64 { return r.TetriumRMinBW / r.VanillaMinBW }),
	"sec583\tWANify latency gain (%)":    on(func(r *Sec583Result) float64 { return pct(r.VanillaJCT, r.WANifyJCT) }),
	"sec583\tWANify cost saving (%)":     on(func(r *Sec583Result) float64 { return pct(r.VanillaCost, r.WANifyCost) }),
	"sec583\tWANify min-BW gain (×)":     on(func(r *Sec583Result) float64 { return r.WANifyMinBW / r.VanillaMinBW }),
	"ablation-model\tRF lowest RMSE": on(func(r *AblationModelResult) float64 {
		rf := r.Rows[slices.IndexFunc(r.Rows, func(row AblationModelRow) bool { return row.Model == "random-forest" })]
		return holds(!slices.ContainsFunc(r.Rows, func(row AblationModelRow) bool { return row.Model != rf.Model && row.RMSE <= rf.RMSE }))
	}),
	"multicloud\tpredicted beats static": on(func(r *MultiCloudResult) float64 { return holds(r.PredictedSig < r.StaticSig) }),
}

// fig4Gain is how much faster variant to trains than variant from, in %.
func fig4Gain(r *Fig4Result, from, to string) float64 {
	train := func(v string) float64 {
		return r.Rows[slices.IndexFunc(r.Rows, func(row Fig4Row) bool { return row.Variant == v })].TrainMin
	}
	return pct(train(from), train(to))
}

// fig7Best is the largest of f over Tetrium's four queries.
func fig7Best(r *Fig7Result, f func(Fig7Row) float64) float64 {
	best := math.Inf(-1)
	for _, row := range r.Rows {
		if row.System == "tetrium" {
			best = max(best, f(row))
		}
	}
	return best
}

// fig8aGain is Tetrium's latency gain over vanilla under variant, in %.
func fig8aGain(r *Fig8aResult, variant string) float64 {
	return r.Rows[slices.IndexFunc(r.Rows, func(row Fig8aRow) bool { return row.System == "tetrium" && row.Variant == variant })].GainPct
}

// fig10Change is Tetrium-W's latency change against Tetrium's variant
// base, in % (negative is faster).
func fig10Change(r *Fig10Result, base string) float64 {
	jct := func(v string) float64 {
		return r.Rows[slices.IndexFunc(r.Rows, func(row Fig10Row) bool { return row.System == "tetrium" && row.Variant == v })].JCT
	}
	return -pct(jct(base), jct("wanify-w"))
}

// judge is the verdict rule, the same for every row, stated on the
// effect paper − none: the median reproduces a claim within ±25 % of
// that effect around the paper's value, and otherwise shows its
// direction when it lies on the paper's side of the no-effect value.
// A row with none 0 has the paper's value as its effect, and an
// ordering claim reads 1 or 0, so it is reproduced exactly when it
// holds at the median. A claim of no effect (paper == none) has a band
// of zero and no side, with no case of its own: only the exact value
// reproduces it, so Fig. 6's 2.06 MB row, which measures a speed-up
// where the paper sees none, is not reproduced.
func judge(c claim, median float64) verdict {
	switch {
	case math.Abs(median-c.paper) <= 0.25*math.Abs(c.paper-c.none):
		return reproduced
	case onPaperSide(c, median):
		return directionOnly
	}
	return notReproduced
}

// onPaperSide reports whether v lies strictly on the paper's side of
// the no-effect value.
func onPaperSide(c claim, v float64) bool { return (v-c.none)*(c.paper-c.none) > 0 }

// noisy reports whether a row's 10–90 % range straddles no effect:
// exactly one of its ends lies on the paper's side.
func noisy(c claim, lo, hi float64) bool { return onPaperSide(c, lo) != onPaperSide(c, hi) }

// TestJudgeRule holds the verdict rule and the noisy mark to
// synthetic rows.
func TestJudgeRule(t *testing.T) {
	ratio := claim{paper: 1.2, none: 1}
	fig10 := claim{paper: -20.3, none: 0}
	noGain := claim{paper: 1, none: 1}
	ordering := claim{paper: 1, none: 0}
	for _, tc := range []struct {
		name   string
		c      claim
		median float64
		want   verdict
	}{
		{"ratio near no effect", ratio, 1.01, directionOnly},
		{"ratio within the effect's band", ratio, 1.16, reproduced},
		{"ratio below no effect", ratio, 0.99, notReproduced},
		{"negative claim within its band", fig10, -15.63, reproduced},
		{"negative claim short of its band", fig10, -12.95, directionOnly},
		{"negative claim of the wrong sign", fig10, 3.12, notReproduced},
		{"no-effect claim met exactly", noGain, 1, reproduced},
		{"no-effect claim missed", noGain, 1.82, notReproduced},
		{"ordering holds", ordering, 1, reproduced},
		{"ordering fails", ordering, 0, notReproduced},
		{"ordering holds at half the seeds", ordering, 0.5, directionOnly},
	} {
		if got := judge(tc.c, tc.median); got != tc.want {
			t.Errorf("%s: judge(paper %v, none %v, median %v) = %s, want %s", tc.name, tc.c.paper, tc.c.none, tc.median, got, tc.want)
		}
	}
	for _, tc := range []struct {
		c      claim
		lo, hi float64
		want   bool
	}{
		{ordering, 0, 0, false},
		{ordering, 0, 1, true},
		{ordering, 1, 1, false},
		{claim{paper: 1.5, none: 1}, 0.97, 1.05, true},
		{noGain, 0.9, 1.1, false},
	} {
		if got := noisy(tc.c, tc.lo, tc.hi); got != tc.want {
			t.Errorf("noisy(paper %v, none %v, [%v, %v]) = %v, want %v", tc.c.paper, tc.c.none, tc.lo, tc.hi, got, tc.want)
		}
	}
	var twenty []string
	for i := 20; i >= 1; i-- {
		twenty = append(twenty, strconv.Itoa(i))
	}
	if got, want := spread(t, twenty), (rowSpread{median: 10.5, lo: 3, hi: 18}); got != want {
		t.Errorf("spread of 1–20 = %+v, want %+v", got, want)
	}
}

// TestReadLedgerValuesRejectsRagged: every row records the same seeds.
func TestReadLedgerValuesRejectsRagged(t *testing.T) {
	const head = "# header\nfig1\ta\t1.00\t2.00\t3.00\n"
	values, n, err := readLedgerValues([]byte(head + "fig1\tb\t4.00\t5.00\t6.00\n"))
	if err != nil || n != 3 || !slices.Equal(values["fig1\tb"], []string{"4.00", "5.00", "6.00"}) {
		t.Fatalf("even file: values %v, %d seeds, error %v; want b's three values", values, n, err)
	}
	if _, _, err := readLedgerValues([]byte(head + "fig1\tb\t4.00\t5.00\n")); err == nil {
		t.Error("a row with 2 seeds under one with 3 parsed without error")
	}
}

// TestLedger measures every ledger row and checks it against
// testdata/ledger.tsv, checks each recorded verdict against the
// rule over all the file's seeds, and checks EXPERIMENTS.md's headline
// table against the render. -update rewrites the seeds it ran in the
// file, and the table; a recorded verdict is changed by hand.
func TestLedger(t *testing.T) {
	t.Parallel()
	for _, c := range ledger {
		if extractors[ledgerKey(c)] == nil {
			t.Errorf("ledger row %q has no extractor", ledgerKey(c))
		}
	}
	if len(extractors) != len(ledger) {
		t.Errorf("%d extractors for %d ledger rows", len(extractors), len(ledger))
	}
	if t.Failed() {
		t.FailNow()
	}
	// Fill the run cache in parallel before the serial read below.
	t.Run("runs", func(t *testing.T) {
		warmed := map[runKey]bool{}
		for s := range ledgerSeeds {
			for _, c := range ledger {
				k := runKey{c.id, uint64(s + 1), Backend{}.String()}
				if warmed[k] {
					continue
				}
				warmed[k] = true
				t.Run(fmt.Sprintf("%s_seed%d", c.id, s+1), func(t *testing.T) {
					t.Parallel()
					runOf(t, k.id, k.seed, Backend{})
				})
			}
		}
	})
	b, err := os.ReadFile(filepath.Join("testdata", ledgerValues))
	if err != nil && !*updateGolden {
		t.Fatalf("missing %s (run with -update): %v", ledgerValues, err)
	}
	values, seeds, err := readLedgerValues(b)
	if err != nil {
		t.Fatalf("%s: %v", ledgerValues, err)
	}
	if ledgerSeeds > seeds && !*updateGolden {
		t.Fatalf("%s records %d seeds, the test runs %d (run with -update)", ledgerValues, seeds, ledgerSeeds)
	}
	seeds = max(seeds, ledgerSeeds)
	// A row the file lacks, or a seed it does not record yet, reads
	// empty.
	for _, c := range ledger {
		row := values[ledgerKey(c)]
		values[ledgerKey(c)] = append(row, make([]string, seeds-len(row))...)
	}
	for s := range ledgerSeeds {
		for _, c := range ledger {
			row := values[ledgerKey(c)]
			res := runOf(t, c.id, uint64(s+1), Backend{})
			if got := strconv.FormatFloat(extractors[ledgerKey(c)](res), 'f', 2, 64); got != row[s] {
				if !*updateGolden {
					t.Errorf("%s: %s at seed %d reads %s, %s records %s", c.id, c.stat, s+1, got, ledgerValues, row[s])
				}
				row[s] = got
			}
		}
	}
	checkGolden(t, ledgerValues, formatLedgerValues(values))
	for _, c := range ledger {
		if v := judge(c, spread(t, values[ledgerKey(c)]).median); v != c.verdict {
			t.Errorf("%s: %s is %s over seeds 1–%d, ledger.go records %s", c.id, c.stat, v, seeds, c.verdict)
		}
	}
	checkLedgerDoc(t, renderLedger(t, values))
}

// readLedgerValues parses testdata/ledger.tsv: one line per row, the
// driver id and claim, then its values at seeds 1–n. It returns the
// rows by ledgerKey and n, which every row must share.
func readLedgerValues(b []byte) (map[string][]string, int, error) {
	out := map[string][]string{}
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		switch {
		case len(f) < 3:
			return nil, 0, fmt.Errorf("malformed line %q", line)
		case len(out) == 0:
			n = len(f) - 2
		case len(f)-2 != n:
			return nil, 0, fmt.Errorf("%s: %s has %d seeds, the rows above it %d", f[0], f[1], len(f)-2, n)
		}
		out[f[0]+"\t"+f[1]] = f[2:]
	}
	return out, n, nil
}

func formatLedgerValues(values map[string][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Paper ledger values at scale 1.0: driver id, claim, seeds 1-%d.\n", len(values[ledgerKey(ledger[0])]))
	b.WriteString("# Rewrite with go test ./internal/experiments -run '^TestLedger$' -update [-tags ledger].\n")
	for _, c := range ledger {
		fmt.Fprintf(&b, "%s\t%s\n", ledgerKey(c), strings.Join(values[ledgerKey(c)], "\t"))
	}
	return b.String()
}

// rowSpread is what a row's values say together: their median (the
// mean of the middle two at an even count), and the range left after
// dropping a tenth of them from each end.
type rowSpread struct{ median, lo, hi float64 }

// spread parses a row's values and summarizes them.
func spread(t *testing.T, values []string) rowSpread {
	t.Helper()
	v := make([]float64, len(values))
	for i, s := range values {
		var err error
		if v[i], err = strconv.ParseFloat(s, 64); err != nil {
			t.Fatalf("%s: value %q: %v", ledgerValues, s, err)
		}
	}
	slices.Sort(v)
	n := len(v)
	return rowSpread{median: (v[(n-1)/2] + v[n/2]) / 2, lo: v[n/10], hi: v[n-1-n/10]}
}

// renderLedger renders EXPERIMENTS.md's headline table.
func renderLedger(t *testing.T, values map[string][]string) string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	b.WriteString("| id | artifact | claim | paper | no effect | median | 10–90 % | verdict | note |\n")
	b.WriteString("|----|----------|-------|-------|-----------|--------|---------|---------|------|\n")
	for _, c := range ledger {
		sp := spread(t, values[ledgerKey(c)])
		rng := fmt.Sprintf("%.2f to %.2f", sp.lo, sp.hi)
		if noisy(c, sp.lo, sp.hi) {
			rng += ", noisy"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %.2f | %s | %s | %s |\n", c.id, c.artifact, c.stat,
			num(c.paper), num(c.none), sp.median, rng, c.verdict, c.note)
	}
	return b.String()
}

// checkLedgerDoc compares the table between EXPERIMENTS.md's ledger
// markers with the render, or rewrites it under -update.
func checkLedgerDoc(t *testing.T, table string) {
	t.Helper()
	b, err := os.ReadFile(ledgerDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	i, j := strings.Index(doc, ledgerBegin+"\n"), strings.Index(doc, ledgerEnd)
	if i < 0 || j < i {
		t.Fatalf("EXPERIMENTS.md lacks the ledger markers %q … %q", ledgerBegin, ledgerEnd)
	}
	i += len(ledgerBegin) + 1
	if *updateGolden {
		if err := os.WriteFile(ledgerDoc, []byte(doc[:i]+table+doc[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if doc[i:j] != table {
		if dir := os.Getenv("WANIFY_GOLDEN_DIFF_DIR"); dir != "" {
			dumpGoldenDiff(t, dir, "EXPERIMENTS.md", doc[:i]+table+doc[j:], doc)
		}
		t.Errorf("EXPERIMENTS.md's ledger table differs from the render near byte %d; rerun with -update", firstDiff(doc[i:j], table))
	}
}
