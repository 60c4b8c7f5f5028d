package gap

import (
	"fmt"
	"math"
)

// WithDeadlines returns a copy of the instance where any cell whose delay
// exceeds the device's deadline budget is unreachable, so every assigner
// automatically produces deadline-respecting configurations. A zero or
// negative budget means "no deadline" for that device. Devices left with
// no usable cell make the constraint set infeasible at solve time (the
// assigners report ErrInfeasible), which is the honest answer when a
// deadline cannot be met.
func WithDeadlines(in *Instance, budgetMs []float64) (*Instance, error) {
	if len(budgetMs) != in.N() {
		return nil, fmt.Errorf("gap: %d deadline budgets for %d devices", len(budgetMs), in.N())
	}
	cost := make([]float64, len(in.cost))
	copy(cost, in.cost)
	m := in.M()
	for i, b := range budgetMs {
		if b <= 0 {
			continue
		}
		row := cost[i*m : (i+1)*m]
		for j, c := range row {
			if c > b {
				row[j] = math.Inf(1)
			}
		}
	}
	// The weight store and capacities are shared read-only.
	return newInstance(in.N(), cost, in.weight, in.Capacity)
}

// DeadlineViolations counts devices whose assigned delay exceeds their
// budget (budget <= 0 never violates).
func DeadlineViolations(in *Instance, a *Assignment, budgetMs []float64) (int, error) {
	if len(budgetMs) != in.N() {
		return 0, fmt.Errorf("gap: %d deadline budgets for %d devices", len(budgetMs), in.N())
	}
	if len(a.Of) != in.N() {
		return 0, fmt.Errorf("gap: assignment length %d for %d devices", len(a.Of), in.N())
	}
	count := 0
	for i, j := range a.Of {
		if b := budgetMs[i]; b > 0 && in.CostAt(i, j) > b {
			count++
		}
	}
	return count, nil
}
