package experiments

import (
	"fmt"
	"strings"

	"github.com/wanify/wanify/internal/workloads"
)

// --- Fig. 4: WAN-aware ML with gradient quantization ---

// Fig4Row is one quantization variant's outcome.
type Fig4Row struct {
	Variant   string
	TrainMin  float64
	CostUSD   float64
	MinBWMbps float64
	Bits      []int
}

// Fig4Result compares NoQ / SAGQ / SimQ / PredQ / WQ.
type Fig4Result struct{ Rows []Fig4Row }

// Fig4 trains the §5.6 model for 10 epochs under the five variants:
// no quantization, quantization driven by static-independent BWs
// (SAGQ), by simultaneous BWs (SimQ), by predicted BWs (PredQ), and
// WANify-enabled quantization with heterogeneous parallel connections
// (WQ).
func Fig4(p Params) (*Fig4Result, error) {
	p = p.withDefaults()
	cfg := workloads.DefaultMLConfig()
	res := &Fig4Result{}
	for _, v := range []struct {
		name   string
		belief beliefKind
		conns  connKind
	}{
		{name: "NoQ"},
		{name: "SAGQ", belief: beliefStaticIndependent},
		{name: "SimQ", belief: beliefStaticSimultaneous},
		{name: "PredQ", belief: beliefPredicted},
		{name: "WQ", belief: beliefPredicted, conns: connTC},
	} {
		r, err := trial{p: p, seed: p.Seed + 404, belief: v.belief, rng: "belief-snapshot", conns: v.conns}.setup()
		if err != nil {
			return nil, err
		}
		run, err := workloads.RunQuantizedTraining(r.sim, rates, r.belief, r.policy, cfg)
		r.stop()
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", v.name, err)
		}
		res.Rows = append(res.Rows, Fig4Row{
			Variant:   v.name,
			TrainMin:  run.TrainSeconds / 60,
			CostUSD:   run.Cost.Total(),
			MinBWMbps: run.MinLinkMbps,
			Bits:      run.BitsPerDC,
		})
	}
	return res, nil
}

// String renders Fig. 4.
func (r *Fig4Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 4: WAN-aware ML with gradient quantization (10 epochs, 8 DCs)\n")
	fmt.Fprintf(&b, "%-8s%14s%12s%14s  %s\n", "variant", "train(min)", "cost($)", "min BW(Mbps)", "bits per DC")
	var noq, sagq float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s%14.1f%12.3f%14.0f  %v\n", row.Variant, row.TrainMin, row.CostUSD, row.MinBWMbps, row.Bits)
		switch row.Variant {
		case "NoQ":
			noq = row.TrainMin
		case "SAGQ":
			sagq = row.TrainMin
		}
	}
	if noq > 0 && sagq > 0 {
		fmt.Fprintf(&b, "SAGQ vs NoQ: %.1f%% faster %s\n", (noq-sagq)/noq*100, paperText("fig4", "SAGQ faster than NoQ (%)"))
	}
	for _, row := range r.Rows {
		if row.Variant == "WQ" && sagq > 0 {
			fmt.Fprintf(&b, "WQ vs SAGQ: %.1f%% faster %s\n", (sagq-row.TrainMin)/sagq*100, paperText("fig4", "WQ faster than SAGQ (%)"))
		}
	}
	return b.String()
}
