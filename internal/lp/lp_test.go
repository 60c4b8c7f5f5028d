package lp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"taccc/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Problem
	}{
		{"empty objective", Problem{}},
		{"eq rhs mismatch", Problem{C: []float64{1}, Aeq: [][]float64{{1}}, Beq: nil}},
		{"ub rhs mismatch", Problem{C: []float64{1}, Aub: [][]float64{{1}}, Bub: nil}},
		{"eq width", Problem{C: []float64{1, 2}, Aeq: [][]float64{{1}}, Beq: []float64{1}}},
		{"ub width", Problem{C: []float64{1, 2}, Aub: [][]float64{{1}}, Bub: []float64{1}}},
	}
	for _, tc := range cases {
		if _, err := Solve(tc.p, 0); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSimpleInequality(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, x <= 2, y <= 3 -> x=1? Optimal: y=3,
	// x=1, obj = -7.
	sol, err := Solve(Problem{
		C:   []float64{-1, -2},
		Aub: [][]float64{{1, 1}, {1, 0}, {0, 1}},
		Bub: []float64{4, 2, 3},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, -7, 1e-9) {
		t.Fatalf("objective = %v, want -7", sol.Objective)
	}
	if !almost(sol.X[0], 1, 1e-9) || !almost(sol.X[1], 3, 1e-9) {
		t.Fatalf("X = %v, want [1 3]", sol.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x <= 4 -> x=4, y=6, obj=16.
	sol, err := Solve(Problem{
		C:   []float64{1, 2},
		Aeq: [][]float64{{1, 1}},
		Beq: []float64{10},
		Aub: [][]float64{{1, 0}},
		Bub: []float64{4},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, 16, 1e-9) {
		t.Fatalf("objective = %v, want 16", sol.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (x >= 3) -> x=3.
	sol, err := Solve(Problem{
		C:   []float64{1},
		Aub: [][]float64{{-1}},
		Bub: []float64{-3},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.X[0], 3, 1e-9) {
		t.Fatalf("X = %v, want [3]", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x = 5 and x <= 1.
	_, err := Solve(Problem{
		C:   []float64{1},
		Aeq: [][]float64{{1}},
		Beq: []float64{5},
		Aub: [][]float64{{1}},
		Bub: []float64{1},
	}, 0)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x >= 0 unconstrained above.
	_, err := Solve(Problem{
		C:   []float64{-1},
		Aub: [][]float64{{-1}},
		Bub: []float64{0},
	}, 0)
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
}

func TestIterationLimit(t *testing.T) {
	_, err := Solve(Problem{
		C:   []float64{-1, -2, -3},
		Aub: [][]float64{{1, 1, 1}, {1, 2, 1}, {2, 1, 3}},
		Bub: []float64{10, 12, 15},
	}, 1)
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("want ErrIterationLimit, got %v", err)
	}
}

func TestDegenerateTies(t *testing.T) {
	// A classic degenerate LP; Bland's rule must terminate.
	sol, err := Solve(Problem{
		C: []float64{-0.75, 150, -0.02, 6},
		Aub: [][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
		},
		Bub: []float64{0, 0, 1},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, -0.05, 1e-9) {
		t.Fatalf("objective = %v, want -0.05 (Beale's example)", sol.Objective)
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 supplies (3, 4), 2 demands (5, 2); costs [[1,4],[2,1]].
	// Variables x11 x12 x21 x22.
	// Optimal: x11=3, x21=2, x22=2 -> 3 + 4 + 2 = 9.
	sol, err := Solve(Problem{
		C: []float64{1, 4, 2, 1},
		Aeq: [][]float64{
			{1, 0, 1, 0}, // demand 1 = 5
			{0, 1, 0, 1}, // demand 2 = 2
		},
		Beq: []float64{5, 2},
		Aub: [][]float64{
			{1, 1, 0, 0}, // supply 1 <= 3
			{0, 0, 1, 1}, // supply 2 <= 4
		},
		Bub: []float64{3, 4},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, 9, 1e-9) {
		t.Fatalf("objective = %v, want 9", sol.Objective)
	}
}

// Property: on random feasible bounded LPs (min c·x, 0 <= x, x <= u,
// Σx >= s with s <= Σu), the solution respects all constraints and has
// objective <= any sampled feasible point.
func TestRandomBoundedLPQuick(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		n := 2 + src.Intn(5)
		c := make([]float64, n)
		u := make([]float64, n)
		for i := range c {
			c[i] = src.Uniform(-5, 5)
			u[i] = src.Uniform(0.5, 4)
		}
		// Constraints: x_i <= u_i.
		var aub [][]float64
		var bub []float64
		for i := 0; i < n; i++ {
			row := make([]float64, n)
			row[i] = 1
			aub = append(aub, row)
			bub = append(bub, u[i])
		}
		sol, err := Solve(Problem{C: c, Aub: aub, Bub: bub}, 0)
		if err != nil {
			return false
		}
		// Constraint satisfaction.
		for i := 0; i < n; i++ {
			if sol.X[i] < -1e-7 || sol.X[i] > u[i]+1e-7 {
				return false
			}
		}
		// The analytic optimum: x_i = u_i when c_i < 0 else 0.
		want := 0.0
		for i := 0; i < n; i++ {
			if c[i] < 0 {
				want += c[i] * u[i]
			}
		}
		return almost(sol.Objective, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a redundant constraint never changes the optimum.
func TestRedundantConstraintQuick(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		c := []float64{src.Uniform(0.1, 3), src.Uniform(0.1, 3), src.Uniform(0.1, 3)}
		// min c·x with Σx = 6, x_i <= 5.
		base := Problem{
			C:   c,
			Aeq: [][]float64{{1, 1, 1}},
			Beq: []float64{6},
			Aub: [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
			Bub: []float64{5, 5, 5},
		}
		s1, err := Solve(base, 0)
		if err != nil {
			return false
		}
		// Redundant: Σx <= 100.
		base.Aub = append(base.Aub, []float64{1, 1, 1})
		base.Bub = append(base.Bub, 100)
		s2, err := Solve(base, 0)
		if err != nil {
			return false
		}
		return almost(s1.Objective, s2.Objective, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
