// Package simrand provides deterministic, named random-number streams for
// the WANify simulators.
//
// Every stochastic component in the repository (link fluctuation, probe
// noise, workload skew, dataset generation) draws from its own stream,
// derived from a root seed and a stream name. Two runs with the same root
// seed therefore produce identical results regardless of the order in
// which components consume randomness, which keeps every experiment in
// EXPERIMENTS.md reproducible.
package simrand

import (
	"hash/fnv"
	"math/rand/v2"
)

// Source is a deterministic random stream. It wraps the stdlib PCG
// generator with a few distribution helpers used across the simulators.
type Source struct {
	rng *rand.Rand
}

// New returns a stream seeded directly with the two given words.
func New(seed1, seed2 uint64) *Source {
	return &Source{rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Derive returns a child stream for the given name. Children with
// different names are statistically independent; the same (seed, name)
// pair always yields the same stream.
func Derive(rootSeed uint64, name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(rootSeed, h.Sum64())
}

// Derive returns a child stream of s for the given name.
func (s *Source) Derive(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(s.rng.Uint64(), h.Sum64())
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Uniform returns a uniform value in [lo, hi). The convex form avoids
// overflow even when hi-lo exceeds the float64 range. The conversions
// keep arm64 from fusing a multiply into an add: u's own scaling is
// exact, but the products are not.
func (s *Source) Uniform(lo, hi float64) float64 {
	u := float64(s.rng.Float64())
	return float64(lo*(1-u)) + float64(hi*u)
}

// IntN returns a uniform int in [0, n). n must be > 0.
func (s *Source) IntN(n int) int { return s.rng.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// Norm returns a normally distributed value with the given mean and
// standard deviation, its product unfused on every architecture.
func (s *Source) Norm(mean, sd float64) float64 {
	return mean + float64(sd*s.rng.NormFloat64())
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// PermInto writes a random permutation of [0, n) into dst (which must
// have length n) and returns it. It consumes exactly the random values
// Perm would — it is the allocation-free twin of Perm, drawing the same
// Fisher-Yates swaps — so the two are interchangeable mid-stream
// without perturbing any downstream draw.
func (s *Source) PermInto(dst []int) []int {
	for i := range dst {
		dst[i] = i
	}
	s.rng.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
	return dst
}

// Shuffle shuffles n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}
