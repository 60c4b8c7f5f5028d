package gap

import (
	"fmt"
	"math"
	"sort"
)

// BnBResult reports a branch-and-bound outcome.
type BnBResult struct {
	// Assignment is the best feasible assignment found (nil if none).
	Assignment *Assignment
	// Cost is its total cost.
	Cost float64
	// Proven is true when the search space was exhausted, so Assignment
	// is optimal (or the instance proven infeasible when Assignment is
	// nil).
	Proven bool
	// Nodes is the number of search nodes expanded.
	Nodes int64
}

// maxBnBNodes caps the nodes BranchAndBound expands.
const maxBnBNodes = 10_000_000

// BranchAndBound solves the instance exactly by depth-first search with
// residual-capacity-aware lower bounds. Devices are branched in order of
// decreasing best-placement regret, edges in increasing cost order. It
// expands at most maxBnBNodes nodes; Proven reports whether the search
// finished within them.
func BranchAndBound(in *Instance) (*BnBResult, error) {
	return branchAndBound(in, maxBnBNodes)
}

// branchAndBound is BranchAndBound under a node budget of maxNodes.
func branchAndBound(in *Instance, maxNodes int64) (*BnBResult, error) {
	n, m := in.N(), in.M()
	upper := math.Inf(1)

	// Branch order: devices with high regret (gap between best and
	// second-best edge) first — wrong early choices are pruned sooner.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	regret := make([]float64, n)
	for i := 0; i < n; i++ {
		best, second := math.Inf(1), math.Inf(1)
		for _, c := range in.CostRow(i) {
			switch {
			case c < best:
				second, best = best, c
			case c < second:
				second = c
			}
		}
		if math.IsInf(second, 1) {
			second = best
		}
		regret[i] = second - best
	}
	sort.SliceStable(order, func(a, b int) bool { return regret[order[a]] > regret[order[b]] })

	// Per-device edge order by increasing cost.
	edgeOrder := make([][]int, n)
	for i := 0; i < n; i++ {
		eo := make([]int, m)
		for j := range eo {
			eo[j] = j
		}
		row := in.CostRow(i)
		sort.SliceStable(eo, func(a, b int) bool { return row[eo[a]] < row[eo[b]] })
		edgeOrder[i] = eo
	}

	of := make([]int, n)
	for i := range of {
		of[i] = -1
	}
	bestOf := make([]int, n)
	found := false
	residual := make([]float64, m)
	copy(residual, in.Capacity)
	var nodes int64
	exhausted := true

	// remainingBound returns Σ over unplaced devices of the cheapest edge
	// still having residual capacity for that device, or +Inf if some
	// device has none (prune: infeasible completion).
	remainingBound := func(pos int) float64 {
		total := 0.0
		for p := pos; p < n; p++ {
			i := order[p]
			min := math.Inf(1)
			for j, c := range in.CostRow(i) {
				if in.WeightAt(i, j) <= residual[j]+1e-12 && c < min {
					min = c
				}
			}
			if math.IsInf(min, 1) {
				return math.Inf(1)
			}
			total += min
		}
		return total
	}

	var dfs func(pos int, cost float64)
	dfs = func(pos int, cost float64) {
		if nodes >= maxNodes {
			exhausted = false
			return
		}
		nodes++
		if pos == n {
			if cost < upper {
				upper = cost
				copy(bestOf, of)
				found = true
			}
			return
		}
		if cost+remainingBound(pos) >= upper {
			return
		}
		i := order[pos]
		cRow := in.CostRow(i)
		for _, j := range edgeOrder[i] {
			c := cRow[j]
			if math.IsInf(c, 1) {
				break // remaining edges in this order are worse
			}
			w := in.WeightAt(i, j)
			if w > residual[j]+1e-12 {
				continue
			}
			if cost+c >= upper {
				break // edges are cost-sorted: nothing cheaper follows
			}
			of[i] = j
			residual[j] -= w
			dfs(pos+1, cost+c)
			residual[j] += w
			of[i] = -1
			if nodes >= maxNodes {
				exhausted = false
				return
			}
		}
	}
	dfs(0, 0)

	res := &BnBResult{Cost: upper, Proven: exhausted, Nodes: nodes}
	if found {
		a, err := NewAssignment(in, bestOf)
		if err != nil {
			return nil, fmt.Errorf("gap: internal error building B&B assignment: %w", err)
		}
		res.Assignment = a
		return res, nil
	}
	if exhausted {
		return res, ErrInfeasible
	}
	return res, fmt.Errorf("gap: branch-and-bound node budget %d exhausted without a feasible assignment", maxNodes)
}
