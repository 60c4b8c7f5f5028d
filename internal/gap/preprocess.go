package gap

import (
	"fmt"
	"math"
)

// Reduction is the result of Preprocess: devices whose placement is forced
// are fixed, their load subtracted from capacities, and the remaining
// ("free") devices form a smaller residual instance. Solve the residual
// with any Assigner and lift the result back with Expand.
type Reduction struct {
	// Fixed maps original device index -> forced edge.
	Fixed map[int]int
	// Free lists the original device index behind each residual row;
	// empty when every device was forced.
	Free []int
	// Residual is the instance over the free devices with reduced
	// capacities; nil when every device was forced.
	Residual *Instance
	// original dimensions for Expand validation.
	n, m int
}

// Preprocess simplifies an instance to fixpoint:
//
//  1. Cell elimination: any (i, j) whose weight exceeds edge j's remaining
//     capacity can never be used — treated as unreachable.
//  2. Forced assignment: a device with exactly one usable cell must take
//     it; its load is committed, which can eliminate further cells.
//  3. Infeasibility: a device with no usable cell proves the instance
//     infeasible (returned as ErrInfeasible).
//
// The reduction is safe: every feasible assignment of the original
// instance agrees with the forced placements.
func Preprocess(in *Instance) (*Reduction, error) {
	n, m := in.N(), in.M()
	capacity := make([]float64, m)
	copy(capacity, in.Capacity)
	fixed := make(map[int]int)
	free := make([]bool, n)
	for i := range free {
		free[i] = true
	}

	usable := func(i, j int) bool {
		return !math.IsInf(in.CostAt(i, j), 1) && in.WeightAt(i, j) <= capacity[j]+1e-12
	}

	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !free[i] {
				continue
			}
			count, only := 0, -1
			for j := 0; j < m; j++ {
				if usable(i, j) {
					count++
					only = j
				}
			}
			switch count {
			case 0:
				return nil, fmt.Errorf("gap: preprocess: device %d has no usable edge: %w", i, ErrInfeasible)
			case 1:
				fixed[i] = only
				free[i] = false
				capacity[only] -= in.WeightAt(i, only)
				changed = true
			}
		}
	}

	red := &Reduction{Fixed: fixed, n: n, m: m}
	for i := 0; i < n; i++ {
		if free[i] {
			red.Free = append(red.Free, i)
		}
	}
	if len(red.Free) == 0 {
		return red, nil
	}
	cost := make([]float64, len(red.Free)*m)
	weight := make([]float64, len(red.Free)*m)
	for k, i := range red.Free {
		copy(cost[k*m:(k+1)*m], in.CostRow(i))
		copy(weight[k*m:(k+1)*m], in.WeightRow(i))
		// Re-run cell elimination against committed capacity so the
		// residual encodes it.
		for j := 0; j < m; j++ {
			if !usable(i, j) {
				cost[k*m+j] = math.Inf(1)
			}
		}
	}
	residual, err := newInstance(len(red.Free), cost, weight, capacity)
	if err != nil {
		return nil, fmt.Errorf("gap: preprocess: building residual: %w", err)
	}
	red.Residual = residual
	return red, nil
}

// NumFixed returns how many devices were forced.
func (r *Reduction) NumFixed() int { return len(r.Fixed) }

// Expand lifts a residual assignment back to the original device indexing.
// Pass nil when the reduction fixed every device.
func (r *Reduction) Expand(residual *Assignment) (*Assignment, error) {
	of := make([]int, r.n)
	for i := range of {
		of[i] = -1
	}
	for i, j := range r.Fixed {
		of[i] = j
	}
	if len(r.Free) > 0 {
		if residual == nil {
			return nil, fmt.Errorf("gap: expand: reduction has %d free devices but no residual assignment", len(r.Free))
		}
		if len(residual.Of) != len(r.Free) {
			return nil, fmt.Errorf("gap: expand: residual assignment has %d entries, want %d", len(residual.Of), len(r.Free))
		}
		for k, i := range r.Free {
			of[i] = residual.Of[k]
		}
	} else if residual != nil {
		return nil, fmt.Errorf("gap: expand: reduction fixed everything but got a residual assignment")
	}
	for i, j := range of {
		if j < 0 || j >= r.m {
			return nil, fmt.Errorf("gap: expand: device %d unassigned", i)
		}
	}
	return &Assignment{Of: of}, nil
}
