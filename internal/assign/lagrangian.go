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
	seed int64
}

// lagrangianIters is the number of subgradient rounds.
const lagrangianIters = 120

// NewLagrangian returns a Lagrangian-heuristic assigner.
func NewLagrangian(seed int64) *Lagrangian { return &Lagrangian{seed: seed} }

// Name implements Assigner.
func (*Lagrangian) Name() string { return "lagrangian" }

// Assign implements Assigner.
func (lg *Lagrangian) Assign(in *gap.Instance) (*gap.Assignment, error) {
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

	for it := 0; it < lagrangianIters; it++ {
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
		return nil, fmt.Errorf("assign/lagrangian: repair never reached feasibility in %d iterations: %w", lagrangianIters, gap.ErrInfeasible)
	}
	return finish(in, bestOf, "lagrangian")
}

// repairState holds the scratch buffers repair reuses across calls, so
// the per-iteration Lagrangian repair step allocates nothing in steady
// state.
type repairState struct {
	residual []float64
	pending  []int
}

// newRepairState sizes the repair buffers for in.
func newRepairState(in *gap.Instance) *repairState {
	return &repairState{
		residual: make([]float64, in.M()),
		pending:  make([]int, 0, in.N()),
	}
}

// repair restores feasibility in place: devices on overloaded or
// unreachable edges are moved (lightest excess first) to the cheapest edge
// with room. Reports whether a feasible repair was found.
func (rs *repairState) repair(in *gap.Instance, of []int, src *xrand.Source) bool {
	m := in.M()
	residual := rs.residual
	copy(residual, in.Capacity)
	for i, j := range of {
		if j < 0 || j >= m || math.IsInf(in.CostAt(i, j), 1) {
			of[i] = -1
			continue
		}
		residual[j] -= in.WeightAt(i, j)
	}
	// Evict from overloaded edges until all fit. Evict the device whose
	// move is cheapest-looking (smallest weight) for gentler repair.
	for j := 0; j < m; j++ {
		for residual[j] < -1e-12 {
			evict := -1
			for i, cur := range of {
				if cur != j {
					continue
				}
				if evict < 0 || in.WeightAt(i, j) < in.WeightAt(evict, j) {
					evict = i
				}
			}
			if evict < 0 {
				return false
			}
			residual[j] += in.WeightAt(evict, j)
			of[evict] = -1
		}
	}
	// Place evicted/unassigned devices greedily (random tie ordering).
	pending := rs.pending[:0]
	for i, cur := range of {
		if cur < 0 {
			pending = append(pending, i)
		}
	}
	rs.pending = pending
	src.Shuffle(len(pending), func(a, b int) { pending[a], pending[b] = pending[b], pending[a] })
	for _, i := range pending {
		j := cheapestFeasible(in, residual, i)
		if j < 0 {
			return false
		}
		of[i] = j
		residual[j] -= in.WeightAt(i, j)
	}
	return true
}
