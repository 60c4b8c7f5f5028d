package gap

import (
	"math"

	"taccc/internal/par"
)

// candidateK is how many of a row's cheapest edges a Candidates table
// keeps. On the 20,000×200, ρ=0.7 wide scenario at seeds 1, 2, 3 and 5,
// a row's relaxed argmin left its 8 cheapest edges in at most 0.03% of
// the 50 rounds' row pricings, against 0.13–0.58% at 4.
const candidateK = 8

// Candidates is the table that prices the Lagrangian relaxation's
// per-row argmin without streaming the instance's stores every round. It
// holds, for each device, its k = min(8, M()) cheapest edges in (cost,
// lowest index) order, each with its weight, and a fence: the (k+1)-th
// cheapest cost, or +Inf when M() <= k. The table belongs to one call:
// build it per solve or per bound, never store it on the Instance.
type Candidates struct {
	in *Instance
	k  int
	// edge, cost and weight hold row i's candidates at [i*k, (i+1)*k).
	edge         []int32
	cost, weight []float64
	fence        []float64
}

// NewCandidates builds the table in one pass over the cost store, on
// the given number of workers (see par.For). Each row fills only its own
// slots, so the table is the same at any worker count.
func NewCandidates(in *Instance, workers int) *Candidates {
	n, k := in.N(), min(candidateK, in.M())
	t := &Candidates{
		in: in, k: k,
		edge:   make([]int32, n*k),
		cost:   make([]float64, n*k),
		weight: make([]float64, n*k),
		fence:  make([]float64, n),
	}
	par.For(workers, n, func(i int) {
		// top is the row's candidateK+1 cheapest edges so far, in
		// (cost, index) order: an edge moves ahead only of strictly
		// dearer ones, and edges arrive in index order.
		var top [candidateK + 1]struct {
			c float64
			j int
		}
		size := 0
		for j, c := range in.CostRow(i) {
			if size < len(top) {
				size++
			} else if !(c < top[size-1].c) {
				continue
			}
			p := size - 1
			for ; p > 0 && c < top[p-1].c; p-- {
				top[p] = top[p-1]
			}
			top[p].c, top[p].j = c, j
		}
		for s := 0; s < k; s++ {
			t.edge[i*k+s] = int32(top[s].j)
			t.cost[i*k+s] = top[s].c
			t.weight[i*k+s] = in.WeightAt(i, top[s].j)
		}
		t.fence[i] = math.Inf(1)
		if size > k {
			t.fence[i] = top[k].c
		}
	})
	return t
}

// Argmin prices device i under the multipliers lambda: it returns the
// lowest c_ij + lambda_j·w_ij, the lowest edge index reaching it, and
// that edge's weight; edge is -1 when no price is finite. The answer has
// the bits of a strict-< scan over the whole row, for any lambda whose
// entries are each >= 0 or NaN.
//
// Only the candidates are priced unless their minimum fails to fall
// strictly below the fence. That is exact: with lambda_j >= 0 and w_ij
// positive and finite, rounding keeps every price at or above its cost,
// so an edge outside the table prices at or above the fence, and a NaN
// price is never taken by either loop.
func (t *Candidates) Argmin(i int, lambda []float64) (price float64, edge int, weight float64) {
	price, edge = math.Inf(1), -1
	lo := i * t.k
	for s := lo; s < lo+t.k; s++ {
		c := t.cost[s]
		if c > price {
			break // costs ascend, so no later candidate prices lower
		}
		j := int(t.edge[s])
		// Candidates are in cost order, not index order: keep the
		// lowest index on a tie, as the row scan does.
		if v := c + lambda[j]*t.weight[s]; v < price || v == price && j < edge {
			price, edge, weight = v, j, t.weight[s]
		}
	}
	if price < t.fence[i] {
		return price, edge, weight
	}
	price, edge, weight = math.Inf(1), -1, 0
	for j, c := range t.in.CostRow(i) {
		w := t.in.WeightAt(i, j)
		if v := c + lambda[j]*w; v < price {
			price, edge, weight = v, j, w
		}
	}
	return price, edge, weight
}

// rowMinBound is the capacity-relaxed lower bound: every device takes its
// cheapest edge. It sums the table's first column in row order.
func (t *Candidates) rowMinBound() float64 {
	total := 0.0
	for i := 0; i < t.in.N(); i++ {
		total += t.cost[i*t.k]
	}
	return total
}

// lagrangianBound computes a lower bound by Lagrangian relaxation of the
// capacity constraints, improved by projected subgradient ascent on the
// multipliers for iters rounds, on the given number of workers. It
// returns the best bound found (always >= rowMinBound up to
// floating-point noise, since multipliers start at 0) and the multipliers
// achieving it.
//
// L(λ) = Σ_i min_j (c_ij + λ_j·w_ij) − Σ_j λ_j·C_j is a valid lower bound
// for every λ >= 0.
//
// Each round prices the rows in parallel through Argmin, every row
// writing its minimum, argmin and the argmin's weight to its own slot;
// one row-order loop then sums the value and the per-edge demand, so the
// bound and the multipliers have the same bits at any worker count.
func (t *Candidates) lagrangianBound(iters, workers int) (float64, []float64) {
	in := t.in
	n, m := in.N(), in.M()
	lambda := make([]float64, m)
	best := make([]float64, m)
	bestVal := math.Inf(-1)

	rowMin := make([]float64, n)
	rowArg := make([]int, n)
	rowW := make([]float64, n)
	demand := make([]float64, m) // Σ w_ij over argmin rows, per edge
	for it := 0; it < iters; it++ {
		par.For(workers, n, func(i int) {
			rowMin[i], rowArg[i], rowW[i] = t.Argmin(i, lambda)
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
			demand[rowArg[i]] += rowW[i]
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

// LowerBound returns the better of the row-min and Lagrangian bounds,
// both read from one candidate table.
func LowerBound(in *Instance) float64 {
	return lowerBound(in, par.Workers(0))
}

func lowerBound(in *Instance, workers int) float64 {
	t := NewCandidates(in, workers)
	rb := t.rowMinBound()
	lb, _ := t.lagrangianBound(50, workers)
	if lb > rb {
		return lb
	}
	return rb
}
