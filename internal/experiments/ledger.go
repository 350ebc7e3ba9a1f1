package experiments

// The paper ledger: every result the paper reports that a driver
// measures, kept here once. Drivers print a claim's text beside their
// measurement; ledger_test.go extracts each claim from the driver's
// result at seeds 1–20, checks the values against
// testdata/ledger.tsv and the verdicts below against the rule, and
// renders EXPERIMENTS.md's headline table.

// verdict is what the median over testdata/ledger.tsv's seeds says
// about a claim (EXPERIMENTS.md states the rule).
type verdict string

const (
	reproduced    verdict = "reproduced"
	directionOnly verdict = "direction-only"
	notReproduced verdict = "not reproduced"
)

// claim is one ledger row.
type claim struct {
	id       string  // the driver that measures it
	stat     string  // what it measures, unique within id
	artifact string  // the paper's figure, table or section
	text     string  // what the driver prints; "" when another row's text states it
	paper    float64 // the paper's value; an ordering claim is 1 (holds) against none 0
	none     float64 // the value that means no effect
	verdict  verdict // recorded for the committed values
	note     string
}

var ledger = []claim{
	{"fig1", "US East→US West (Mbps)", "Fig. 1", "(paper 1700)",
		1700, 0, reproduced, "a calibration anchor of the testbed's geography, not an effect of WANify"},
	{"fig1", "US East→AP SE (Mbps)", "Fig. 1", "(paper 121)",
		121, 0, reproduced, "a calibration anchor, as above"},
	{"table1", "significant gaps", "Table 1", "(paper: 18 = 7/8/3)",
		18, 0, directionOnly, "netsim's weather moves fewer DC pairs by >100 Mbps between static and runtime probing than the paper's WAN did"},
	{"table1", "slowest DC from SA East flips", "Table 1", "(paper: AP SE -> EU West flip)",
		1, 0, notReproduced, "the slowest link from SA East is the same under static and runtime probing"},
	{"table2", "prediction saving (%)", "Table 2", "(paper: ~96%)",
		96, 0, reproduced, "Eq. 1 and the session cost model at the paper's rates; no simulation"},
	{"table2", "8-DC monitoring ($/yr)", "Table 2", "(paper: $703/$1055/$1406 monitoring; $35/$20/$14 training; $29/$16/$11 predictions)",
		1406, 0, reproduced, "training and prediction differ from the paper's by at most $1 per cluster size"},
	{"fig2", "heterogeneous ÷ uniform min BW (×)", "Fig. 2", "paper: 2.1x, 120.5 -> 255.5",
		2.1, 1, directionOnly, "overshoots: heterogeneous matches the paper's 255.5 Mbps, uniform stays at 81.7 against its 120.5"},
	{"table4", "mean min-BW gain (×)", "Table 4", "(paper: ~1.5x)",
		1.5, 1, notReproduced, "runtime beliefs cut q78's latency but hardly widen the slowest shuffle link"},
	{"table4", "snapshot monitoring saving (%)", "§5.2", "(paper: ~$5 vs ~$80, ~94% saving)",
		94, 0, reproduced, "a 1 s snapshot against 20 s of simultaneous probing, priced by probe bytes"},
	{"fig4", "SAGQ faster than NoQ (%)", "Fig. 4", "(paper ~22%)",
		22, 0, directionOnly, "overshoots: quantizing to static BWs"},
	{"fig4", "WQ faster than SAGQ (%)", "Fig. 4", "(paper ~26%)",
		26, 0, directionOnly, "WQ's parallel connections hardly shorten a training round"},
	{"fig5", "WANify-TC best on latency, cost, min BW", "Fig. 5", "(paper: WANify-TC best on all three; 61 min, $4.7, 790 Mbps min BW)",
		1, 0, notReproduced, "§3.2.2's throttle never binds: WANify-TC equals WANify-Dynamic, because a cap at the mean achievable BW is slack on netsim"},
	{"fig6", "speed-up at 2.06 MB/pair (×)", "Fig. 6", "(paper: gains appear for shuffle > 7.4 MB; similar below)",
		1, 1, notReproduced, "WANify is faster even at the smallest shuffle, where the paper sees no gain"},
	{"fig6", "faster above 7.4 MB/pair", "Fig. 6", "",
		1, 0, reproduced, ""},
	{"fig7", "Tetrium best latency gain (%)", "Fig. 7", "(paper: latency up to 24% lower, cost up to 8% lower, 3.3x min BW)",
		24, 0, reproduced, "best of Tetrium's four queries"},
	{"fig7", "Tetrium best cost saving (%)", "Fig. 7", "",
		8, 0, directionOnly, ""},
	{"fig7", "Tetrium best min-BW gain (×)", "Fig. 7", "",
		3.3, 1, directionOnly, ""},
	{"fig8a", "Tetrium global-only gain (%)", "Fig. 8(a)", "(paper: global-only ~16%, local-only ~11%, full WANify ~23% latency gain)",
		16, 0, directionOnly, ""},
	{"fig8a", "Tetrium local-only gain (%)", "Fig. 8(a)", "",
		11, 0, directionOnly, "overshoots"},
	{"fig8a", "Tetrium full gain (%)", "Fig. 8(a)", "",
		23, 0, reproduced, ""},
	{"fig8a", "global-only beats local-only", "Fig. 8(a)", "",
		1, 0, notReproduced, "local-only beats global-only: which half of WANify matters is inverted"},
	{"fig8b", "latency change (%)", "Fig. 8(b)", "(paper: +18% latency, +5% cost, -38% min BW)",
		18, 0, reproduced, ""},
	{"fig8b", "cost change (%)", "Fig. 8(b)", "",
		5, 0, directionOnly, ""},
	{"fig8b", "min-BW change (%)", "Fig. 8(b)", "",
		-38, 0, directionOnly, ""},
	{"fig9", "significant deltas", "Fig. 9", "(paper: 6 verticals)",
		6, 0, directionOnly, "overshoots"},
	{"fig10", "Tetrium-W vs Tetrium latency (%)", "Fig. 10", "(paper: Tetrium-W latency -26.5/-20.3/-7.1% vs Tetrium/-P/-WNS; 1.2-2.1x min BW)",
		-26.5, 0, reproduced, "against one connection, most of the gain is WANify's connections; the skew weights' own effect is the −WNS row"},
	{"fig10", "Tetrium-W vs -P latency (%)", "Fig. 10", "",
		-20.3, 0, reproduced, ""},
	{"fig10", "Tetrium-W vs -WNS latency (%)", "Fig. 10", "",
		-7.1, 0, notReproduced, "the skew weights slow Tetrium-W"},
	{"fig11a", "predicted beats static at every size", "Fig. 11(a)", "(paper: predicted beats static for every cluster size)",
		1, 0, notReproduced, "prediction wins on the largest clusters, and loses or ties on the smaller ones"},
	{"fig11b", "predicted beats static at every VM count", "Fig. 11(b)", "(paper: predicted BW significantly closer to runtime than static)",
		1, 0, reproduced, ""},
	{"sec583", "Tetrium-r latency gain (%)", "§5.8.3", "(paper: 5%/1%, 1.2x min BW)",
		5, 0, reproduced, ""},
	{"sec583", "Tetrium-r cost saving (%)", "§5.8.3", "",
		1, 0, notReproduced, "Tetrium-r costs more than vanilla"},
	{"sec583", "Tetrium-r min-BW gain (×)", "§5.8.3", "",
		1.2, 1, notReproduced, ""},
	{"sec583", "WANify latency gain (%)", "§5.8.3", "(paper: 15%/7.4%, 2x min BW)",
		15, 0, directionOnly, ""},
	{"sec583", "WANify cost saving (%)", "§5.8.3", "",
		7.4, 0, notReproduced, "WANify costs more than vanilla"},
	{"sec583", "WANify min-BW gain (×)", "§5.8.3", "",
		2, 1, directionOnly, ""},
	{"ablation-model", "RF lowest RMSE", "§3.1", "(paper §3.1: RF chosen over statistical regression/CNN; CNN reached only ~85%)",
		1, 0, notReproduced, "linear regression beats RF: netsim has none of the outliers the paper's choice rests on"},
	{"multicloud", "predicted beats static", "§5.8.3", `(paper: "we observed similar results" to Fig 11 — prediction closer to runtime)`,
		1, 0, reproduced, "the paper gives no figure"},
}

// paperText returns what driver id prints for its claim stat.
func paperText(id, stat string) string {
	for _, c := range ledger {
		if c.id == id && c.stat == stat {
			return c.text
		}
	}
	panic("experiments: no ledger claim " + id + ": " + stat)
}
