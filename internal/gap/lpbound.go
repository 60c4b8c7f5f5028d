package gap

import (
	"fmt"
	"math"

	"taccc/internal/lp"
)

// LPRelaxation solves the linear relaxation of the instance:
//
//	min Σ c_ij x_ij   s.t.  Σ_j x_ij = 1  ∀i,  Σ_i w_ij x_ij <= C_j  ∀j,  x >= 0
//
// It returns the fractional solution (row-major x[i][j]) and its objective,
// which is the tightest polynomial-time lower bound this package computes.
// Pairs with +Inf cost are excluded from the formulation (their x is 0).
// The dense simplex underneath is O(rows·cols) per pivot; keep n·m within
// a few thousand variables.
func LPRelaxation(in *Instance) ([][]float64, float64, error) {
	n, m := in.N(), in.M()
	// Map (i, j) -> variable index, skipping unreachable pairs.
	varOf := make([][]int, n)
	nVars := 0
	for i := 0; i < n; i++ {
		varOf[i] = make([]int, m)
		for j := 0; j < m; j++ {
			if math.IsInf(in.CostAt(i, j), 1) {
				varOf[i][j] = -1
				continue
			}
			varOf[i][j] = nVars
			nVars++
		}
	}
	if nVars == 0 {
		return nil, 0, fmt.Errorf("gap: LP relaxation has no reachable pairs: %w", ErrInfeasible)
	}
	c := make([]float64, nVars)
	aeq := make([][]float64, n)
	beq := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, nVars)
		any := false
		for j := 0; j < m; j++ {
			if v := varOf[i][j]; v >= 0 {
				row[v] = 1
				c[v] = in.CostAt(i, j)
				any = true
			}
		}
		if !any {
			return nil, 0, fmt.Errorf("gap: device %d unreachable from every edge: %w", i, ErrInfeasible)
		}
		aeq[i] = row
		beq[i] = 1
	}
	aub := make([][]float64, m)
	bub := make([]float64, m)
	for j := 0; j < m; j++ {
		row := make([]float64, nVars)
		for i := 0; i < n; i++ {
			if v := varOf[i][j]; v >= 0 {
				row[v] = in.WeightAt(i, j)
			}
		}
		aub[j] = row
		bub[j] = in.Capacity[j]
	}
	sol, err := lp.Solve(lp.Problem{C: c, Aeq: aeq, Beq: beq, Aub: aub, Bub: bub}, 0)
	if err != nil {
		if err == lp.ErrInfeasible {
			return nil, 0, fmt.Errorf("gap: LP relaxation infeasible: %w", ErrInfeasible)
		}
		return nil, 0, fmt.Errorf("gap: LP relaxation: %w", err)
	}
	x := make([][]float64, n)
	for i := 0; i < n; i++ {
		x[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			if v := varOf[i][j]; v >= 0 {
				x[i][j] = sol.X[v]
			}
		}
	}
	return x, sol.Objective, nil
}

// LPBound returns the LP-relaxation lower bound, or -Inf when the LP could
// not be solved (so callers can fall back to cheaper bounds).
func LPBound(in *Instance) float64 {
	_, obj, err := LPRelaxation(in)
	if err != nil {
		return math.Inf(-1)
	}
	return obj
}
