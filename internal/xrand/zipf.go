package xrand

import "math"

// Zipf is the distribution over ranks [0, n) with probability
// proportional to 1/(rank+1)^s. A skew s of 0 degenerates to uniform;
// typical IoT demand skews are in [0.6, 1.2].
type Zipf struct {
	cdf []float64
}

// NewZipf returns the Zipf distribution over n ranks with skew s. It
// panics if n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with n <= 0")
	}
	if s < 0 {
		panic("xrand: NewZipf with negative skew")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}
}

// Prob returns the probability mass of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
