// Package cost prices simulated GDA activity the way the paper does:
// query cost = compute + network + storage (§5.1, "all query costs
// include compute, network, and storage costs", plus the $0.05 per
// vCPU-hour unlimited-burst surcharge), and monitoring cost per Eq. 1,
//
//	annual = O × N × (x×y + z)
//
// where O is yearly monitoring occurrences, N the cluster size, x the
// per-instance-second compute price, y the monitoring duration, and z
// the per-instance network cost of the traffic exchanged while
// monitoring. Table 2's three columns are derived from this model; see
// EXPERIMENTS.md for the parameter interpretation that reproduces the
// paper's dollar figures.
package cost

import (
	"strings"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// Rates bundles the pricing constants (representative public AWS/GCP
// prices; the paper's Table 2 arithmetic reproduces with these).
type Rates struct {
	// BurstPerVCPUHour is the unlimited-CPU-burst surcharge (§5.1).
	BurstPerVCPUHour float64
	// StoragePerGBMonth is the S3-class storage price.
	StoragePerGBMonth float64
	// DefaultEgressPerGB applies to regions without an override.
	DefaultEgressPerGB float64
	// EgressPerGB maps region-code prefixes to inter-region egress
	// prices in USD/GB; the longest matching prefix wins.
	EgressPerGB map[string]float64
}

// DefaultRates returns the pricing used across the reproduction.
// Inter-region egress is heterogeneous — the property Kimchi's
// network-cost-aware placement exploits.
func DefaultRates() Rates {
	return Rates{
		BurstPerVCPUHour:   0.05,
		StoragePerGBMonth:  0.023,
		DefaultEgressPerGB: 0.02,
		EgressPerGB: map[string]float64{
			"us-":            0.02,
			"eu-":            0.02,
			"ap-south-1":     0.086,
			"ap-southeast-1": 0.090,
			"ap-southeast-2": 0.098,
			"ap-northeast-1": 0.090,
			"sa-":            0.138,
		},
	}
}

// EgressPerGBFor returns the egress price for traffic leaving a region.
func (r Rates) EgressPerGBFor(src geo.Region) float64 {
	best, bestLen := r.DefaultEgressPerGB, -1
	for prefix, price := range r.EgressPerGB {
		if strings.HasPrefix(src.Code, prefix) && len(prefix) > bestLen {
			best, bestLen = price, len(prefix)
		}
	}
	return best
}

// ComputeUSD prices `seconds` of one instance, including the burst
// surcharge.
func (r Rates) ComputeUSD(spec substrate.VMSpec, seconds float64) float64 {
	perHour := spec.HourlyUSD + r.BurstPerVCPUHour*float64(spec.VCPUs)
	return perHour / 3600 * seconds
}

// EgressUSD prices bytes leaving the given region over the WAN.
func (r Rates) EgressUSD(src geo.Region, bytes float64) float64 {
	return bytes / 1e9 * r.EgressPerGBFor(src)
}

// StorageUSD prices gb gigabytes held for the given number of seconds.
func (r Rates) StorageUSD(gb, seconds float64) float64 {
	const secPerMonth = 30 * 24 * 3600
	return gb * r.StoragePerGBMonth * seconds / secPerMonth
}

// Breakdown is an itemized price of a simulated activity.
type Breakdown struct {
	ComputeUSD float64
	NetworkUSD float64
	StorageUSD float64
}

// Total returns the summed cost.
func (b Breakdown) Total() float64 { return b.ComputeUSD + b.NetworkUSD + b.StorageUSD }

// Add returns the element-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		ComputeUSD: b.ComputeUSD + o.ComputeUSD,
		NetworkUSD: b.NetworkUSD + o.NetworkUSD,
		StorageUSD: b.StorageUSD + o.StorageUSD,
	}
}

// --- Eq. 1 and Table 2 ---

// MonitoringParams parameterizes Eq. 1.
type MonitoringParams struct {
	// OccurrencesPerYear is O. The paper follows Tetrium's suggestion of
	// measuring every 30 minutes: 17,520 occurrences per year.
	OccurrencesPerYear int
	// N is the cluster size (1 VM per DC).
	N int
	// DurationS is y, the monitoring duration in seconds (20 for stable
	// runtime BWs, 1 for snapshots).
	DurationS float64
	// AvgMbps sets z: the average per-instance bandwidth during the
	// monitoring window (the paper prices Table 2 at 200 Mbps).
	AvgMbps float64
	// Spec is the monitoring instance (t3.nano in the paper).
	Spec substrate.VMSpec
	// NetPerGB is the inter-region transfer price for probe traffic.
	NetPerGB float64
}

// DefaultMonitoringParams returns Table 2's runtime-monitoring setup
// for a cluster of n DCs.
func DefaultMonitoringParams(n int) MonitoringParams {
	return MonitoringParams{
		OccurrencesPerYear: 2 * 24 * 365, // every 30 minutes
		N:                  n,
		DurationS:          20,
		AvgMbps:            200,
		Spec:               substrate.T3Nano,
		NetPerGB:           0.02,
	}
}

// perInstanceUSD returns x×y + z for one monitoring occurrence. x is
// the raw per-instance-second price (monitoring probes do not incur the
// unlimited-burst surcharge in the paper's Table 2 arithmetic).
func (p MonitoringParams) perInstanceUSD(r Rates) float64 {
	xy := p.Spec.HourlyUSD / 3600 * p.DurationS
	gb := p.AvgMbps * p.DurationS / 8 / 1000
	z := gb * p.NetPerGB
	return xy + z
}

// RuntimeMonitoringAnnualUSD evaluates Eq. 1: O × N × (x×y + z).
func RuntimeMonitoringAnnualUSD(p MonitoringParams, r Rates) float64 {
	return float64(p.OccurrencesPerYear) * float64(p.N) * p.perInstanceUSD(r)
}

// sessionsFor returns how many monitoring sessions a cluster of n DCs
// needs to collect `rows` labeled pairs: each session yields one row
// per ordered DC pair, so larger clusters need fewer sessions — the
// reason Table 2's training and prediction costs *decrease* with N.
func sessionsFor(rows, n int) int {
	perSession := n * (n - 1)
	if perSession <= 0 {
		return 0
	}
	return (rows + perSession - 1) / perSession
}

// TrainingParams prices the one-time collection of the training set.
type TrainingParams struct {
	// Rows is the training-set size (1000 samples in Table 2).
	Rows int
	// N is the cluster size.
	N int
	// SessionS is the per-session duration: 1 s snapshot + 20 s stable
	// label (21 s).
	SessionS float64
	// SessionMbps is the average per-instance traffic while a session's
	// all-pairs probes run (probing saturates the burst NIC; 2000 Mbps
	// reproduces the paper's dollar figures).
	SessionMbps float64
	Spec        substrate.VMSpec
	NetPerGB    float64
}

// DefaultTrainingParams returns Table 2's model-training setup.
func DefaultTrainingParams(n int) TrainingParams {
	return TrainingParams{
		Rows: 1000, N: n, SessionS: 21, SessionMbps: 2000,
		Spec: substrate.T3Nano, NetPerGB: 0.02,
	}
}

// TrainingCostUSD prices training-set collection: sessions × N × (x×y + z).
func TrainingCostUSD(p TrainingParams) float64 {
	sessions := sessionsFor(p.Rows, p.N)
	xy := p.Spec.HourlyUSD / 3600 * p.SessionS
	gb := p.SessionMbps * p.SessionS / 8 / 1000
	return float64(sessions) * float64(p.N) * (xy + gb*p.NetPerGB)
}

// PredictionParams prices a year of online prediction: the snapshot
// sessions taken to feed the model and intermittently validate it
// (§3.3.4). Like training, the session count scales inversely with the
// rows each session yields.
type PredictionParams struct {
	// RowsPerYear is the number of predicted/validated pairs per year
	// (16,500 reproduces the paper's column).
	RowsPerYear int
	N           int
	// SnapshotS is the snapshot duration (1 s).
	SnapshotS float64
	// SessionMbps is the per-instance traffic during the snapshot.
	SessionMbps float64
	Spec        substrate.VMSpec
	NetPerGB    float64
}

// DefaultPredictionParams returns Table 2's prediction setup.
func DefaultPredictionParams(n int) PredictionParams {
	return PredictionParams{
		RowsPerYear: 16500, N: n, SnapshotS: 1, SessionMbps: 2000,
		Spec: substrate.T3Nano, NetPerGB: 0.02,
	}
}

// PredictionCostUSD prices a year of snapshot-driven predictions.
func PredictionCostUSD(p PredictionParams) float64 {
	sessions := sessionsFor(p.RowsPerYear, p.N)
	xy := p.Spec.HourlyUSD / 3600 * p.SnapshotS
	gb := p.SessionMbps * p.SnapshotS / 8 / 1000
	return float64(sessions) * float64(p.N) * (xy + gb*p.NetPerGB)
}
