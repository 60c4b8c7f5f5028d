// Package stats provides the small statistical toolkit used by the
// simulator and the experiment harness: streaming moments (Welford),
// quantiles over collected samples and normal-theory confidence intervals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates streaming mean and variance without storing samples.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of samples added.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 if no samples were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (n-1 denominator), or 0 for
// fewer than two samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean, or 0 for no samples.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of a normal-theory 95% confidence interval for
// the mean.
func (w *Welford) CI95() float64 { return 1.96 * w.StdErr() }

// Sample collects raw observations for exact quantile queries. The zero
// value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Mean returns the sample mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between closest ranks. It returns 0 for an empty sample and panics for q
// outside [0, 1].
func (s *Sample) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P95 returns the 0.95 quantile.
func (s *Sample) P95() float64 { return s.Quantile(0.95) }

// P99 returns the 0.99 quantile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Values returns a copy of the observations in insertion-then-sorted order;
// callers own the returned slice.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}
