package assign

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"taccc/internal/gap"
)

func TestLPRoundingFeasibleAndGood(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := mustSynthetic(t, gap.SyntheticCorrelated, 20, 4, 0.8, seed)
		a, err := NewLPRounding(seed).Assign(in)
		if err != nil {
			if errors.Is(err, gap.ErrInfeasible) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !in.Feasible(a) {
			t.Fatalf("seed %d: infeasible result", seed)
		}
		// LP guidance should beat random comfortably.
		r, err := NewRandom(seed).Assign(in)
		if err != nil {
			continue
		}
		if in.TotalCost(a) > in.TotalCost(r) {
			t.Fatalf("seed %d: lp-rounding (%v) worse than random (%v)",
				seed, in.TotalCost(a), in.TotalCost(r))
		}
	}
}

func TestLPRoundingNearLPBoundWithSlack(t *testing.T) {
	// With generous capacity the LP optimum is integral (every device on
	// its cheapest edge) and rounding must recover it exactly.
	in, err := gap.NewInstance(
		[][]float64{{1, 9}, {8, 2}, {3, 7}},
		[][]float64{{1, 1}, {1, 1}, {1, 1}},
		[]float64{100, 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewLPRounding(1).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.TotalCost(a); got != 6 {
		t.Fatalf("TotalCost = %v, want 6 (1+2+3)", got)
	}
}

func TestLPRoundingInfeasible(t *testing.T) {
	in := infeasibleInstance(t)
	if _, err := NewLPRounding(1).Assign(in); !errors.Is(err, gap.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestLPRoundingRegistered(t *testing.T) {
	reg := NewRegistry()
	a, err := reg.New("lp-rounding", 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "lp-rounding" {
		t.Fatalf("Name = %q", a.Name())
	}
}

// TestLPRoundingOverBudget pins lp-rounding at rl-solve's shape, 2000 ×
// 50, where its dense LP once passed 3.29 GB without returning in 60 s:
// the solve now fails with gap.ErrLPTooLarge within a deadline and
// after allocating next to nothing.
func TestLPRoundingOverBudget(t *testing.T) {
	in := mustSynthetic(t, gap.SyntheticUniform, 2000, 50, 0.85, 1)
	type result struct {
		err   error
		bytes uint64
	}
	done := make(chan result, 1)
	go func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewLPRounding(1).Assign(in)
		runtime.ReadMemStats(&after)
		done <- result{err, after.TotalAlloc - before.TotalAlloc}
	}()
	select {
	case r := <-done:
		if !errors.Is(r.err, gap.ErrLPTooLarge) {
			t.Fatalf("lp-rounding at 2000×50: %v, want gap.ErrLPTooLarge", r.err)
		}
		if r.bytes > 64<<10 {
			t.Errorf("lp-rounding at 2000×50 allocated %d B before refusing", r.bytes)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lp-rounding at 2000×50 did not return within 10 s")
	}
}
