package gap

import (
	"errors"
	"fmt"
	"math"

	"taccc/internal/lp"
)

// maxLPCells is the dense LP's size budget: the most tableau cells
// LPRelaxation hands the simplex. The tableau has a row per device and
// per edge and a column per reachable (device, edge) pair, per edge's
// slack and per device's artificial, so (n+m)·(pairs+n+m) cells, and
// every pivot sweeps them. The budget is the 200 × 10 tableau (210 ×
// 2,210), which solved in 3.4–6.7 s on a 2-vCPU VM. In the run where it
// took 6.7 s, the slowest shape under the budget, 30 × 100, took 9.2 s;
// the 400 × 5, 1000 × 2 and 2000 × 1 tableaux, also 2,000 pairs, took
// 14, 29 and 17 s; and 2000 × 50 once passed 3.29 GB without returning
// in 60 s.
const maxLPCells = 210 * 2210

// ErrLPTooLarge is returned, wrapped, when an instance's tableau has more
// cells than the dense LP's budget, the 200 × 10 instance's. The check
// comes before the LP allocates anything.
var ErrLPTooLarge = errors.New("gap: LP relaxation exceeds the dense simplex's size budget")

// LPRelaxation solves the linear relaxation of the instance:
//
//	min Σ c_ij x_ij   s.t.  Σ_j x_ij = 1  ∀i,  Σ_i w_ij x_ij <= C_j  ∀j,  x >= 0
//
// It returns the fractional solution (row-major x[i][j]) and its objective,
// which is the tightest polynomial-time lower bound this package computes.
// Pairs with +Inf cost are excluded from the formulation (their x is 0).
// The dense simplex underneath is O(rows·cols) per pivot, so an instance
// whose tableau is larger than the 200 × 10 instance's gets ErrLPTooLarge.
func LPRelaxation(in *Instance) ([][]float64, float64, error) {
	n, m := in.N(), in.M()
	nVars := 0
	for i := 0; i < n; i++ {
		for _, c := range in.CostRow(i) {
			if !math.IsInf(c, 1) {
				nVars++
			}
		}
	}
	if nVars == 0 {
		return nil, 0, fmt.Errorf("gap: LP relaxation has no reachable pairs: %w", ErrInfeasible)
	}
	if rows, cols := n+m, nVars+n+m; rows*cols > maxLPCells {
		return nil, 0, fmt.Errorf("%w: %d × %d tableau, budget %d cells", ErrLPTooLarge, rows, cols, maxLPCells)
	}
	// Map (i, j) -> variable index, skipping unreachable pairs.
	varOf := make([][]int, n)
	v := 0
	for i := 0; i < n; i++ {
		varOf[i] = make([]int, m)
		for j := 0; j < m; j++ {
			if math.IsInf(in.CostAt(i, j), 1) {
				varOf[i][j] = -1
				continue
			}
			varOf[i][j] = v
			v++
		}
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
// not be solved or is over its size budget (so callers can fall back to
// cheaper bounds).
func LPBound(in *Instance) float64 {
	_, obj, err := LPRelaxation(in)
	if err != nil {
		return math.Inf(-1)
	}
	return obj
}
