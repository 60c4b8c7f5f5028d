package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// Lagrangian is the relaxation-guided heuristic: subgradient ascent on
// capacity multipliers produces price-adjusted costs; at every iteration
// the relaxed argmin assignment is repaired to feasibility and the best
// feasible result is kept. A strong classical baseline for GAP.
type Lagrangian struct {
	// Iters is the number of subgradient rounds (default 120).
	Iters int
	seed  int64
}

// NewLagrangian returns a Lagrangian-heuristic assigner.
func NewLagrangian(seed int64) *Lagrangian { return &Lagrangian{seed: seed} }

// Name implements Assigner.
func (*Lagrangian) Name() string { return "lagrangian" }

// Assign implements Assigner.
func (lg *Lagrangian) Assign(in *gap.Instance) (*gap.Assignment, error) {
	iters := lg.Iters
	if iters <= 0 {
		iters = 120
	}
	src := xrand.NewSplit(lg.seed, "lagrangian")
	n, m := in.N(), in.M()
	lambda := make([]float64, m)

	bestOf := make([]int, n)
	bestCost := math.Inf(1)
	found := false
	of := make([]int, n)
	repaired := make([]int, n)
	demand := make([]float64, m)
	rs := newRepairState(in)
	cand := gap.NewCandidates(in, 1)

	for it := 0; it < iters; it++ {
		// Relaxed solution under current prices.
		for j := range demand {
			demand[j] = 0
		}
		for i := 0; i < n; i++ {
			_, j, w := cand.Argmin(i, lambda)
			if j < 0 {
				return nil, fmt.Errorf("assign/lagrangian: device %d unreachable from every edge: %w", i, gap.ErrInfeasible)
			}
			of[i] = j
			demand[j] += w
		}
		// Repair to feasibility and track the incumbent.
		copy(repaired, of)
		if rs.repair(in, repaired, src) {
			c := in.CostOf(repaired)
			if c < bestCost {
				bestCost = c
				copy(bestOf, repaired)
				found = true
			}
		}
		// Subgradient step on multipliers.
		norm := 0.0
		for j := 0; j < m; j++ {
			g := demand[j] - in.Capacity[j]
			norm += g * g
		}
		if norm == 0 {
			break // relaxed solution feasible: optimal
		}
		step := 2.0 / float64(it+1)
		scale := step / math.Sqrt(norm)
		for j := 0; j < m; j++ {
			lambda[j] += scale * (demand[j] - in.Capacity[j])
			if lambda[j] < 0 {
				lambda[j] = 0
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("assign/lagrangian: repair never reached feasibility in %d iterations: %w", iters, gap.ErrInfeasible)
	}
	return finish(in, bestOf, "lagrangian")
}
