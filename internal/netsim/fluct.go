package netsim

import (
	"math"

	"github.com/wanify/wanify/internal/simrand"
)

// ouProcess is a mean-reverting (Ornstein–Uhlenbeck) process on the log
// of a per-link bandwidth factor, plus an occasional multiplicative
// degradation episode. It models the paper's "fluctuating BWs" [38]:
// links drift around their nominal capacity on the scale of minutes,
// with rare sharper dips (routing events, cross-traffic bursts).
type ouProcess struct {
	rng *simrand.Source

	x   float64 // current log-factor
	cur float64 // factor as of the last refresh

	spikeUntil float64 // sim time the current episode ends
	spikeDepth float64 // multiplicative factor during the episode
}

// newOUProcess starts a process with fluctTheta, fluctSigma,
// spikeProbPerSec and spikeMeanDurS (config.go).
func newOUProcess(rng *simrand.Source) *ouProcess {
	p := &ouProcess{rng: rng, spikeDepth: 1}
	// Start from the stationary distribution so early samples are not
	// biased toward factor == 1.
	sd := fluctSigma / math.Sqrt(2*fluctTheta)
	p.x = rng.Norm(0, sd)
	return p
}

// advance steps the process by dt seconds ending at sim time now.
func (p *ouProcess) advance(now, dt float64) {
	if dt <= 0 {
		return
	}
	p.x += float64(fluctTheta*(0-p.x)*dt) + float64(fluctSigma*math.Sqrt(dt)*p.rng.Norm(0, 1))
	// Clamp the log-factor so a pathological random walk cannot produce
	// absurd capacities (factor stays within [e^-1.2, e^+1.2] ≈ [0.3, 3.3]).
	if p.x > 1.2 {
		p.x = 1.2
	}
	if p.x < -1.2 {
		p.x = -1.2
	}
	if now >= p.spikeUntil {
		p.spikeDepth = 1
		if p.rng.Bool(spikeProbPerSec * dt) {
			p.spikeDepth = p.rng.Uniform(0.3, 0.7)
			p.spikeUntil = now + float64(p.rng.Exp(spikeMeanDurS))
		}
	}
}

// refresh recomputes the stored factor from the process state. The
// simulator calls it where the state moves while somebody can read the
// result (the fluctuation tick, for pairs carrying flows) and where a
// reader appears (addFlow) — never from factor itself. factor is read
// by flowCap once per flow per fill and per ramp step, so a stored
// value costs one Exp per loaded pair per tick where computing it on
// read would cost one per flow per fill; and a getter that writes
// nothing keeps every read of a pair between two ticks the same value
// by construction.
func (p *ouProcess) refresh() {
	p.cur = math.Exp(p.x) * p.spikeDepth
}

// factor returns the multiplicative bandwidth factor as of the last
// refresh.
func (p *ouProcess) factor() float64 { return p.cur }
