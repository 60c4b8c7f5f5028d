// Package xrand provides deterministic, seed-splittable pseudo-random
// sources for reproducible experiments.
//
// Every simulation and every experiment replication in this repository draws
// randomness through this package so that a (seed, stream-label) pair fully
// determines the run. Splitting is done by hashing the parent seed together
// with a label, which keeps independent subsystems (topology generation,
// workload arrivals, algorithm exploration) decorrelated even when they are
// created from the same root seed.
package xrand

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random source with convenience distributions.
// The zero value is not usable; construct with New or Split.
type Source struct {
	rng *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// SplitSeed derives a child seed from a parent seed and a label. The same
// (seed, label) pair always yields the same child seed.
func SplitSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	return int64(h.Sum64())
}

// Split returns a new Source seeded from the label and one Int63 drawn
// from this source. Splitting therefore advances the parent: two
// Split calls with the same label give different children, and adding
// or removing a Split shifts every later draw from the parent. Use
// NewSplit to derive a child from a seed without touching any stream.
func (s *Source) Split(label string) *Source {
	return New(SplitSeed(s.Int63(), label))
}

// NewSplit returns a Source derived from (seed, label) without constructing
// an intermediate parent.
func NewSplit(seed int64, label string) *Source {
	return New(SplitSeed(seed, label))
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Uniform returns a uniform float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// Exponential returns an exponentially distributed float64 with the given
// rate (mean 1/rate). It panics if rate <= 0.
func (s *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exponential with non-positive rate")
	}
	return s.rng.ExpFloat64() / rate
}

// LogNormal returns a log-normally distributed float64 where the underlying
// normal has mean mu and standard deviation sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.rng.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// PermInto fills p with a pseudo-random permutation of [0, len(p)) without
// allocating. It performs exactly the draws Perm(len(p)) performs, in the
// same order, so swapping one for the other never shifts the stream: a
// source in a given state produces the same permutation from either.
func (s *Source) PermInto(p []int) {
	for i := range p {
		j := s.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Choice returns a uniform index weighted by weights. Weights must be
// non-negative with a positive sum; otherwise Choice panics.
func (s *Source) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: Choice with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: Choice with non-positive total weight")
	}
	r := s.rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r < acc {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack
}
