package gap

import (
	"math"

	"taccc/internal/par"
)

// RowMinBound returns the capacity-relaxed lower bound: every device takes
// its cheapest edge. Always a valid lower bound on the optimal total cost.
func RowMinBound(in *Instance) float64 {
	return rowMinBound(in, par.Workers(0))
}

// rowMinBound is RowMinBound on the given number of workers: each row's
// minimum goes to its own slot, and the slots are summed in row order, so
// the bound has the same bits at any worker count.
func rowMinBound(in *Instance, workers int) float64 {
	mins := make([]float64, in.N())
	par.For(workers, in.N(), func(i int) {
		min := math.Inf(1)
		for _, c := range in.CostRow(i) {
			if c < min {
				min = c
			}
		}
		mins[i] = min
	})
	total := 0.0
	for _, v := range mins {
		total += v
	}
	return total
}

// LagrangianBound computes a lower bound by Lagrangian relaxation of the
// capacity constraints, improved by projected subgradient ascent on the
// multipliers for iters rounds. It returns the best bound found (always >=
// RowMinBound up to floating-point noise, since multipliers start at 0) and
// the multipliers achieving it.
//
// L(λ) = Σ_i min_j (c_ij + λ_j·w_ij) − Σ_j λ_j·C_j is a valid lower bound
// for every λ >= 0.
func LagrangianBound(in *Instance, iters int) (float64, []float64) {
	return lagrangianBound(in, iters, par.Workers(0))
}

// lagrangianBound is LagrangianBound on the given number of workers. Each
// round prices the rows in parallel, every row writing its minimum and
// argmin to its own slot; one row-order loop then sums the value and the
// per-edge demand, so the bound and the multipliers have the same bits at
// any worker count.
func lagrangianBound(in *Instance, iters, workers int) (float64, []float64) {
	n, m := in.N(), in.M()
	lambda := make([]float64, m)
	best := make([]float64, m)
	bestVal := math.Inf(-1)

	rowMin := make([]float64, n)
	rowArg := make([]int, n)
	demand := make([]float64, m) // Σ w_ij over argmin rows, per edge
	for it := 0; it < iters; it++ {
		par.For(workers, n, func(i int) {
			minV, minJ := math.Inf(1), -1
			w := in.WeightRow(i)
			for j, c := range in.CostRow(i) {
				if v := c + lambda[j]*w[j]; v < minV {
					minV, minJ = v, j
				}
			}
			rowMin[i], rowArg[i] = minV, minJ
		})
		for j := range demand {
			demand[j] = 0
		}
		val := 0.0
		for i := 0; i < n; i++ {
			if rowArg[i] < 0 {
				// Row has no finite option: instance is
				// infeasible; the bound is unbounded.
				return math.Inf(1), lambda
			}
			val += rowMin[i]
			demand[rowArg[i]] += in.WeightRow(i)[rowArg[i]]
		}
		for j := 0; j < m; j++ {
			val -= lambda[j] * in.Capacity[j]
		}
		if val > bestVal {
			bestVal = val
			copy(best, lambda)
		}
		// Subgradient g_j = demand_j − C_j; diminishing step.
		step := 1.0 / float64(it+1)
		norm := 0.0
		for j := 0; j < m; j++ {
			g := demand[j] - in.Capacity[j]
			norm += g * g
		}
		if norm == 0 {
			break // multipliers are optimal for this relaxation
		}
		scale := step / math.Sqrt(norm)
		for j := 0; j < m; j++ {
			lambda[j] += scale * (demand[j] - in.Capacity[j])
			if lambda[j] < 0 {
				lambda[j] = 0
			}
		}
	}
	return bestVal, best
}

// LowerBound returns the better of the row-min and Lagrangian bounds.
func LowerBound(in *Instance) float64 {
	rb := RowMinBound(in)
	lb, _ := LagrangianBound(in, 50)
	if lb > rb {
		return lb
	}
	return rb
}
