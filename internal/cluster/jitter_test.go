package cluster

import (
	"fmt"
	"math"
	"testing"
)

func TestJitterValidation(t *testing.T) {
	// exp(sigma^2/2), the mean the jitter factor is normalized by,
	// overflows above sigma ≈ 37.68; such a sigma would zero every delay
	// (or, at +Inf, make it NaN).
	for _, sigma := range []float64{-0.1, math.NaN(), 40, 1000, math.Inf(1)} {
		cfg := simpleConfig()
		cfg.JitterSigma = sigma
		if _, err := New(cfg); err == nil {
			t.Errorf("jitter %v accepted", sigma)
		} else if want := fmt.Sprintf("cluster: invalid JitterSigma %v", sigma); err.Error() != want {
			t.Errorf("jitter %v: error %q, want %q", sigma, err, want)
		}
	}
	for _, sigma := range []float64{0, 0.3, 37} {
		cfg := simpleConfig()
		cfg.JitterSigma = sigma
		if _, err := New(cfg); err != nil {
			t.Errorf("jitter %v rejected: %v", sigma, err)
		}
	}
}

func TestJitterPreservesMeanRaisesVariance(t *testing.T) {
	mk := func(sigma float64) *Result {
		cfg := simpleConfig()
		cfg.Devices[0].RateHz = 5
		cfg.Devices[1].RateHz = 5
		cfg.JitterSigma = sigma
		res, err := mustRun(cfg, 240_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := mk(0)
	noisy := mk(0.5)
	// Mean latency preserved within a few percent (jitter is
	// mean-normalized).
	if math.Abs(clean.Latency.Mean()-noisy.Latency.Mean()) > 0.08*clean.Latency.Mean() {
		t.Fatalf("jitter shifted the mean: %v vs %v", clean.Latency.Mean(), noisy.Latency.Mean())
	}
	// The spread must widen: p99 - p50 grows materially.
	cleanSpread := clean.Latency.P99() - clean.Latency.Median()
	noisySpread := noisy.Latency.P99() - noisy.Latency.Median()
	if noisySpread <= cleanSpread*1.5 {
		t.Fatalf("jitter did not widen the tail: spread %v vs %v", noisySpread, cleanSpread)
	}
}

func TestJitterNeverNegative(t *testing.T) {
	cfg := simpleConfig()
	cfg.JitterSigma = 1.5 // extreme
	res, err := mustRun(cfg, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Quantile(0) <= 0 {
		t.Fatalf("non-positive latency with jitter: %v", res.Latency.Quantile(0))
	}
}
