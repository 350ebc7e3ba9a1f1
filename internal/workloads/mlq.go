package workloads

import (
	"math"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// The geo-distributed ML workload of §5.6: synchronous training where
// every epoch each worker exchanges gradients/weights with a parameter
// server (the Spark master's DC), and a quantization policy picks the
// float precision per link from the bandwidth it *believes* that link
// has (SAGQ [15]). All variants reach the same accuracy in the same
// number of epochs (the paper reports ~97% for all); what differs — and
// what Fig. 4 plots — is wall-clock training time and cost.

// QuantBits are the supported gradient precisions.
var QuantBits = []int{4, 8, 16, 32}

// MLConfig configures a quantized training run.
type MLConfig struct {
	// Epochs is the number of synchronous epochs (10 in Fig. 4).
	Epochs int
	// ModelBytes is the full-precision (32-bit) gradient payload each
	// worker exchanges with the master per epoch, per direction.
	ModelBytes float64
	// ComputeSecPerEpoch is the local gradient-computation time per
	// epoch on a unit-rate worker.
	ComputeSecPerEpoch float64
	// MasterDC hosts the parameter server (US East in the paper).
	MasterDC int
	// MinMeanBits is the accuracy budget: the mean precision across
	// links may not drop below this (16 keeps test accuracy at ~97%;
	// quantizing everything to 4 bits would not).
	MinMeanBits float64
}

// DefaultMLConfig returns the Fig. 4 setup.
func DefaultMLConfig() MLConfig {
	return MLConfig{
		Epochs:             10,
		ModelBytes:         150e6,
		ComputeSecPerEpoch: 18,
		MasterDC:           0,
		MinMeanBits:        12,
	}
}

// MLResult is the outcome of a training run.
type MLResult struct {
	// TrainSeconds is total wall-clock training time.
	TrainSeconds float64
	// Cost itemizes compute + network for the run.
	Cost cost.Breakdown
	// BitsPerDC is the precision assigned to each worker's link
	// (32 for the master's own DC).
	BitsPerDC []int
	// MinLinkMbps is the weakest observed per-epoch exchange rate.
	MinLinkMbps float64
}

// bitBandMbps maps believed link bandwidth to gradient precision:
// SAGQ keeps full precision on links it believes can carry it and
// degrades precision as believed bandwidth shrinks. The bands follow
// the transfer-time-equalizing idea (a 4x smaller payload on a 4x
// slower link takes the same time).
func bitBandMbps(bw float64) int {
	switch {
	case bw >= 800:
		return 32
	case bw >= 400:
		return 16
	case bw >= 160:
		return 8
	default:
		return 4
	}
}

// allocateBits picks per-worker gradient precisions from believed
// bandwidths to the master: links believed fast keep full precision,
// links believed slow degrade, and the mean precision across workers
// must stay at or above minMeanBits (the accuracy budget). A nil
// believed matrix disables quantization (32 bits everywhere — NoQ).
//
// This is where belief accuracy matters (§5.6): static-independent
// measurements overestimate runtime bandwidth (no contention), so SAGQ
// keeps too many links at high precision and the congested ones stall
// the synchronous exchange. Simultaneous/predicted beliefs see the
// contended values and quantize accordingly.
func allocateBits(believed bwmatrix.Matrix, masterDC int, minMeanBits float64) []int {
	if believed == nil {
		return nil
	}
	n := believed.N()
	bits := make([]int, n)
	workers := 0
	for d := 0; d < n; d++ {
		if d == masterDC {
			bits[d] = 32
			continue
		}
		workers++
		bits[d] = bitBandMbps(believed[d][masterDC])
	}
	if workers == 0 {
		return bits
	}
	// Raise precisions (strongest believed links first) until the mean
	// meets the accuracy budget.
	for meanBits(bits, masterDC) < minMeanBits {
		bestDC, bestBW := -1, -1.0
		for d := 0; d < n; d++ {
			if d == masterDC || bits[d] >= 32 {
				continue
			}
			if believed[d][masterDC] > bestBW {
				bestBW = believed[d][masterDC]
				bestDC = d
			}
		}
		if bestDC < 0 {
			break
		}
		bits[bestDC] = nextBits(bits[bestDC])
	}
	return bits
}

func nextBits(b int) int {
	for _, q := range QuantBits {
		if q > b {
			return q
		}
	}
	return b
}

func meanBits(bits []int, masterDC int) float64 {
	sum, n := 0.0, 0
	for d, b := range bits {
		if d != masterDC {
			sum += float64(b)
			n++
		}
	}
	if n == 0 {
		return 32
	}
	return sum / float64(n)
}

// RunQuantizedTraining executes the training loop on the simulator.
// believed selects the quantization policy's bandwidth beliefs (nil =
// NoQ); policy selects the connection strategy (spark.SingleConn for
// all paper variants except WQ, which passes agent-managed pools).
func RunQuantizedTraining(sim substrate.Cluster, rates cost.Rates, believed bwmatrix.Matrix, policy spark.ConnPolicy, cfg MLConfig) (MLResult, error) {
	n := sim.NumDCs()
	bits := allocateBits(believed, cfg.MasterDC, cfg.MinMeanBits)
	if bits == nil {
		bits = make([]int, n)
		for d := range bits {
			bits[d] = 32
		}
	}

	res := MLResult{BitsPerDC: bits, MinLinkMbps: math.Inf(1)}
	start := sim.Now()
	var wanBytesBySrc = make([]float64, n)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Local gradient computation (synchronous): slowest DC gates.
		computeS := 0.0
		for d := 0; d < n; d++ {
			rate := 0.0
			for _, vm := range sim.VMsOfDC(d) {
				rate += sim.Spec(vm).ComputeRate
			}
			if t := cfg.ComputeSecPerEpoch / rate; t > computeS {
				computeS = t
			}
		}
		for v := 0; v < sim.NumVMs(); v++ {
			sim.SetCPULoad(substrate.VMID(v), 0.9)
		}
		sim.RunFor(computeS)
		for v := 0; v < sim.NumVMs(); v++ {
			sim.SetCPULoad(substrate.VMID(v), 0.2)
		}

		// Gradient push + weight pull, all workers concurrently.
		var flows []substrate.Flow
		var payloads []float64
		exchangeStart := sim.Now()
		for d := 0; d < n; d++ {
			if d == cfg.MasterDC {
				continue
			}
			payload := cfg.ModelBytes * float64(bits[d]) / 32
			src := sim.FirstVMOfDC(d)
			dst := sim.FirstVMOfDC(cfg.MasterDC)
			wanBytesBySrc[d] += payload
			wanBytesBySrc[cfg.MasterDC] += payload

			up := sim.StartFlow(src, dst, policy.Conns(src, cfg.MasterDC), payload, nil)
			policy.Register(up)
			down := sim.StartFlow(dst, src, policy.Conns(dst, d), payload, nil)
			policy.Register(down)
			flows = append(flows, up, down)
			payloads = append(payloads, payload, payload)
		}
		if err := sim.AwaitFlows(3600, flows...); err != nil {
			return MLResult{}, err
		}
		exchangeS := sim.Now() - exchangeStart
		if exchangeS > 0 {
			for _, p := range payloads {
				// Lower bound on the link's achieved rate: its payload
				// over the whole (slowest-gated) exchange window.
				rate := p * 8 / 1e6 / exchangeS
				if rate < res.MinLinkMbps {
					res.MinLinkMbps = rate
				}
			}
		}
		for v := 0; v < sim.NumVMs(); v++ {
			sim.SetCPULoad(substrate.VMID(v), 0)
		}
	}

	res.TrainSeconds = sim.Now() - start
	if math.IsInf(res.MinLinkMbps, 1) {
		res.MinLinkMbps = 0
	}
	for v := 0; v < sim.NumVMs(); v++ {
		res.Cost.ComputeUSD += rates.ComputeUSD(sim.Spec(substrate.VMID(v)), res.TrainSeconds)
	}
	regions := sim.Regions()
	for d := 0; d < n; d++ {
		res.Cost.NetworkUSD += rates.EgressUSD(regions[d], wanBytesBySrc[d])
	}
	return res, nil
}
