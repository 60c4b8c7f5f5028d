package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance is
	// 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatalf("single-sample Welford: mean %v var %v", w.Mean(), w.Variance())
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); !almostEqual(got, 50.5, 1e-9) {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v, want 100", got)
	}
	if got := s.P95(); !almostEqual(got, 95.05, 1e-9) {
		t.Fatalf("p95 = %v, want 95.05", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleQuantilePanics(t *testing.T) {
	var s Sample
	s.Add(1)
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			s.Quantile(q)
		}()
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	_ = s.Median() // forces sort
	s.Add(3)
	if got := s.Median(); got != 3 {
		t.Fatalf("median after re-add = %v, want 3", got)
	}
}

func TestSampleValuesIsCopy(t *testing.T) {
	var s Sample
	s.Add(1)
	v := s.Values()
	v[0] = 99
	if s.Quantile(0) == 99 {
		t.Fatal("Values leaked internal storage")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestSampleQuantileMonotoneQuick(t *testing.T) {
	f := func(xs []float64, qa, qb uint8) bool {
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if len(xs) == 0 {
			return true
		}
		q1 := float64(qa) / 255
		q2 := float64(qb) / 255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := s.Quantile(q1), s.Quantile(q2)
		return v1 <= v2 && v1 >= lo && v2 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCI95ShrinksWithSamples(t *testing.T) {
	var small, large Welford
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 5))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 5))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 should shrink: small %v, large %v", small.CI95(), large.CI95())
	}
}
