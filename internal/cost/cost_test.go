package cost

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// TestTable2RuntimeMonitoring verifies that Eq. 1 with the paper's
// stated parameters (30-minute cadence, t3.nano, 20 s duration,
// 200 Mbps average, $0.02/GB) reproduces Table 2's runtime-monitoring
// column: ~$703, ~$1055, ~$1406 for 4, 6, 8 DCs.
func TestTable2RuntimeMonitoring(t *testing.T) {
	r := DefaultRates()
	want := map[int]float64{4: 703, 6: 1055, 8: 1406}
	for n, w := range want {
		got := RuntimeMonitoringAnnualUSD(DefaultMonitoringParams(n), r)
		if math.Abs(got-w) > w*0.05 {
			t.Errorf("runtime monitoring N=%d: $%.0f, want ~$%.0f", n, got, w)
		}
	}
}

// TestTable2TrainingCosts verifies the session-based training cost
// model lands near Table 2's training column ($35/$20/$14) and, most
// importantly, *decreases* with cluster size (larger clusters yield
// more labeled pairs per session).
func TestTable2TrainingCosts(t *testing.T) {
	want := map[int]float64{4: 35, 6: 20, 8: 14}
	prev := math.Inf(1)
	for _, n := range []int{4, 6, 8} {
		got := TrainingCostUSD(DefaultTrainingParams(n))
		if math.Abs(got-want[n]) > want[n]*0.25 {
			t.Errorf("training N=%d: $%.1f, want ~$%.0f", n, got, want[n])
		}
		if got >= prev {
			t.Errorf("training cost should decrease with N; N=%d cost $%.1f >= previous $%.1f", n, got, prev)
		}
		prev = got
	}
}

// TestTable2SavingsRatio verifies the headline claim: prediction
// (training + predictions) saves ~96% versus runtime monitoring.
func TestTable2SavingsRatio(t *testing.T) {
	r := DefaultRates()
	var monitoring, prediction float64
	for _, n := range []int{4, 6, 8} {
		monitoring += RuntimeMonitoringAnnualUSD(DefaultMonitoringParams(n), r)
		prediction += TrainingCostUSD(DefaultTrainingParams(n))
		prediction += PredictionCostUSD(DefaultPredictionParams(n))
	}
	savings := 1 - prediction/monitoring
	if savings < 0.90 {
		t.Errorf("prediction savings = %.1f%%, want >= 90%% (paper: ~96%%)", savings*100)
	}
	t.Logf("monitoring $%.0f vs prediction $%.0f: %.1f%% savings", monitoring, prediction, savings*100)
}

// TestEgressHeterogeneity checks that egress pricing differs by region
// (the property Kimchi exploits) and that prefix matching works.
func TestEgressHeterogeneity(t *testing.T) {
	r := DefaultRates()
	if us, sa := r.EgressPerGBFor(geo.USEast), r.EgressPerGBFor(geo.SAEast); us >= sa {
		t.Errorf("US egress $%.3f should be cheaper than SA $%.3f", us, sa)
	}
	if got := r.EgressPerGBFor(geo.APSE); got != 0.090 {
		t.Errorf("AP SE egress = %v, want 0.090", got)
	}
	unknown := geo.Region{Code: "mars-north-1"}
	if got := r.EgressPerGBFor(unknown); got != r.DefaultEgressPerGB {
		t.Errorf("unknown region egress = %v, want default %v", got, r.DefaultEgressPerGB)
	}
}

// TestComputeIncludesBurstSurcharge checks the §5.1 adjustment: $0.05
// per vCPU-hour on top of the instance price.
func TestComputeIncludesBurstSurcharge(t *testing.T) {
	r := DefaultRates()
	oneHour := r.ComputeUSD(substrate.T2Medium, 3600)
	want := 0.0464 + 0.05*2
	if math.Abs(oneHour-want) > 1e-9 {
		t.Errorf("t2.medium hour = $%.4f, want $%.4f", oneHour, want)
	}
}

// TestSessionsFor checks the rows-per-session arithmetic.
func TestSessionsFor(t *testing.T) {
	cases := []struct{ rows, n, want int }{
		{1000, 4, 84}, // 12 rows/session
		{1000, 6, 34}, // 30 rows/session
		{1000, 8, 18}, // 56 rows/session
		{0, 4, 0},
		{5, 1, 0}, // degenerate: no pairs
	}
	for _, c := range cases {
		if got := sessionsFor(c.rows, c.n); got != c.want {
			t.Errorf("sessionsFor(%d, %d) = %d, want %d", c.rows, c.n, got, c.want)
		}
	}
}

// TestEgressUnknownRegion checks the fallback row of the egress table:
// any code with no matching prefix — including an empty one — prices
// at DefaultEgressPerGB rather than zero or a panic.
func TestEgressUnknownRegion(t *testing.T) {
	r := DefaultRates()
	for _, code := range []string{"mars-north-1", "xx", ""} {
		if got := r.EgressPerGBFor(geo.Region{Code: code}); got != r.DefaultEgressPerGB {
			t.Errorf("EgressPerGBFor(%q) = %v, want default %v", code, got, r.DefaultEgressPerGB)
		}
	}
	if r.DefaultEgressPerGB <= 0 {
		t.Fatalf("DefaultEgressPerGB = %v, want positive", r.DefaultEgressPerGB)
	}
}

// TestBreakdownProperties is the property test for the accounting
// algebra: over seeded random breakdowns, Add must be commutative
// (bit-exact — IEEE addition commutes), keep the zero value as an
// exact identity, stay consistent with Total (the total of a sum
// equals the sum of totals, up to rounding), and associate up to
// rounding.
func TestBreakdownProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func() Breakdown {
		return Breakdown{
			ComputeUSD: rng.Float64() * 100,
			NetworkUSD: rng.Float64() * 100,
			StorageUSD: rng.Float64() * 100,
		}
	}
	for i := 0; i < 200; i++ {
		a, b, c := random(), random(), random()
		if a.Add(b) != b.Add(a) {
			t.Fatalf("Add not commutative: %+v vs %+v", a.Add(b), b.Add(a))
		}
		if a.Add(Breakdown{}) != a {
			t.Fatalf("zero not identity: %+v", a.Add(Breakdown{}))
		}
		if got, want := a.Add(b).Total(), a.Total()+b.Total(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("Total inconsistent with Add: %v vs %v", got, want)
		}
		l, r := a.Add(b).Add(c), a.Add(b.Add(c))
		if math.Abs(l.Total()-r.Total()) > 1e-9*(1+math.Abs(l.Total())) {
			t.Fatalf("Add not associative: %+v vs %+v", l, r)
		}
	}
}

// TestBreakdown checks the Breakdown arithmetic.
func TestBreakdown(t *testing.T) {
	a := Breakdown{ComputeUSD: 1, NetworkUSD: 2, StorageUSD: 3}
	b := Breakdown{ComputeUSD: 10, NetworkUSD: 20, StorageUSD: 30}
	sum := a.Add(b)
	if sum.Total() != 66 {
		t.Errorf("total = %v, want 66", sum.Total())
	}
}

// TestStoragePricing sanity-checks proration.
func TestStoragePricing(t *testing.T) {
	r := DefaultRates()
	month := 30.0 * 24 * 3600
	if got := r.StorageUSD(100, month); math.Abs(got-2.3) > 1e-9 {
		t.Errorf("100 GB-month = $%v, want $2.30", got)
	}
}
