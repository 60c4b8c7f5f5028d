package gap

import (
	"errors"
	"math"
	"testing"
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
