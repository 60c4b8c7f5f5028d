package gap

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

func TestLPRelaxationTiny(t *testing.T) {
	in := tiny(t)
	x, obj, err := LPRelaxation(in)
	if err != nil {
		t.Fatal(err)
	}
	// LP bound must sit between the capacity-relaxed bound (6) and the
	// integral optimum (7).
	if obj < 6-1e-9 || obj > 7+1e-9 {
		t.Fatalf("LP objective = %v, want in [6, 7]", obj)
	}
	// Each row sums to 1.
	for i := range x {
		sum := 0.0
		for j := range x[i] {
			if x[i][j] < -1e-9 {
				t.Fatalf("negative x[%d][%d] = %v", i, j, x[i][j])
			}
			sum += x[i][j]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Capacity respected fractionally.
	for j := 0; j < in.M(); j++ {
		load := 0.0
		for i := 0; i < in.N(); i++ {
			load += x[i][j] * in.WeightAt(i, j)
		}
		if load > in.Capacity[j]+1e-6 {
			t.Fatalf("fractional load %v exceeds capacity %v on edge %d", load, in.Capacity[j], j)
		}
	}
}

func TestLPBoundSandwichedByOptimum(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in, err := Synthetic(SyntheticCorrelated, 10, 3, 0.8, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BranchAndBound(in)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		lpb := LPBound(in)
		if lpb > res.Cost+1e-6 {
			t.Fatalf("seed %d: LP bound %v above optimum %v", seed, lpb, res.Cost)
		}
		// The LP bound dominates the row-min bound.
		if rb := NewCandidates(in, 1).rowMinBound(); lpb < rb-1e-6 {
			t.Fatalf("seed %d: LP bound %v below row-min %v", seed, lpb, rb)
		}
	}
}

func TestLPBoundTighterThanLagrangianOnAverage(t *testing.T) {
	// LP = optimized Lagrangian dual, so LP >= any finite subgradient
	// run (up to tolerance).
	for seed := int64(0); seed < 5; seed++ {
		in, err := Synthetic(SyntheticCorrelated, 12, 3, 0.9, seed)
		if err != nil {
			t.Fatal(err)
		}
		lpb := LPBound(in)
		lgb, _ := NewCandidates(in, 1).lagrangianBound(100, 1)
		if lpb < lgb-1e-4 {
			t.Fatalf("seed %d: LP bound %v below Lagrangian %v", seed, lpb, lgb)
		}
	}
}

func TestLPRelaxationInfeasible(t *testing.T) {
	in, err := NewInstance(
		[][]float64{{1, 1}},
		[][]float64{{5, 5}},
		[]float64{1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LPRelaxation(in); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if !math.IsInf(LPBound(in), -1) {
		t.Fatal("LPBound on infeasible instance should be -Inf")
	}
}

func TestLPRelaxationUnreachablePairs(t *testing.T) {
	in, err := NewInstance(
		[][]float64{{math.Inf(1), 2}, {3, math.Inf(1)}},
		[][]float64{{1, 1}, {1, 1}},
		[]float64{5, 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	x, obj, err := LPRelaxation(in)
	if err != nil {
		t.Fatal(err)
	}
	if x[0][0] != 0 || x[1][1] != 0 {
		t.Fatal("mass on unreachable pair")
	}
	if math.Abs(obj-5) > 1e-9 {
		t.Fatalf("objective = %v, want 5", obj)
	}
}

func TestLPRelaxationAllUnreachableRow(t *testing.T) {
	in, err := NewInstance(
		[][]float64{{math.Inf(1), math.Inf(1)}},
		[][]float64{{1, 1}},
		[]float64{5, 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LPRelaxation(in); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

// TestLPRelaxationSizeBudget pins the dense LP's size budget. At
// rl-solve's shape, 2000 × 50, where the LP itself passed 3.29 GB, and at
// 2000 × 1 and 1000 × 2, only 2,000 pairs but a tableau 17 and 6 times
// the budget's, LPRelaxation returns ErrLPTooLarge within a deadline and
// after allocating next to nothing, and LPBound reads -Inf. The budget
// counts reachable pairs, not n·m: 30 devices on 100 edges with two
// reachable edges each still solve.
func TestLPRelaxationSizeBudget(t *testing.T) {
	for _, shape := range [][2]int{{2000, 50}, {2000, 1}, {1000, 2}} {
		in, err := Synthetic(SyntheticUniform, shape[0], shape[1], 0.85, 1)
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			err   error
			bytes uint64
		}
		done := make(chan result, 1)
		go func() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := LPRelaxation(in)
			runtime.ReadMemStats(&after)
			done <- result{err, after.TotalAlloc - before.TotalAlloc}
		}()
		select {
		case r := <-done:
			if !errors.Is(r.err, ErrLPTooLarge) {
				t.Fatalf("LPRelaxation at %d×%d: %v, want ErrLPTooLarge", shape[0], shape[1], r.err)
			}
			if r.bytes > 64<<10 {
				t.Errorf("LPRelaxation at %d×%d allocated %d B before refusing", shape[0], shape[1], r.bytes)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("LPRelaxation at %d×%d did not return within 10 s", shape[0], shape[1])
		}
		if b := LPBound(in); !math.IsInf(b, -1) {
			t.Errorf("LPBound at %d×%d = %v, want -Inf", shape[0], shape[1], b)
		}
	}

	inf := math.Inf(1)
	cost, weight := make([][]float64, 30), make([][]float64, 30)
	for i := range cost {
		cost[i], weight[i] = make([]float64, 100), make([]float64, 100)
		for j := range cost[i] {
			cost[i][j], weight[i][j] = inf, 1
		}
		cost[i][i%100], cost[i][(i+1)%100] = 1, 2
	}
	capacity := make([]float64, 100)
	for j := range capacity {
		capacity[j] = 30
	}
	sparse, err := NewInstance(cost, weight, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, obj, err := LPRelaxation(sparse); err != nil || obj != 30 {
		t.Errorf("60 reachable pairs among 3,000: objective %v, error %v; want 30, nil", obj, err)
	}
}
