package assign

import (
	"fmt"
	"math"
	"sort"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// MinMax minimizes the *maximum* per-device delay (min-max fairness — the
// objective that matters when the deployment's deadline is set by its
// worst-served device) instead of the total. It bisects over the sorted
// distinct delay values: at threshold T every cell with delay > T is
// masked infeasible and a constructive packer checks whether an
// overload-free assignment still exists. The smallest feasible T wins;
// total delay is then polished with local search *under the threshold
// mask* so the secondary objective doesn't regress the primary one.
type MinMax struct {
	seed   int64
	phases *obs.Phase
}

// SetPhases implements PhasedSolver: subsequent Assign calls emit a
// "construction" span for the threshold bisection and a "polish" span
// for the masked local search, under parent.
func (mm *MinMax) SetPhases(parent *obs.Phase) { mm.phases = parent }

// NewMinMax returns a min-max assigner.
func NewMinMax(seed int64) *MinMax { return &MinMax{seed: seed} }

// Name implements Assigner.
func (*MinMax) Name() string { return "minmax" }

// Assign implements Assigner.
func (mm *MinMax) Assign(in *gap.Instance) (*gap.Assignment, error) {
	// Candidate thresholds: every distinct finite cost.
	var costs []float64
	for i := 0; i < in.N(); i++ {
		for _, c := range in.CostRow(i) {
			if !math.IsInf(c, 1) {
				costs = append(costs, c)
			}
		}
	}
	if len(costs) == 0 {
		return nil, fmt.Errorf("assign/minmax: no reachable pairs: %w", gap.ErrInfeasible)
	}
	sort.Float64s(costs)
	costs = dedupFloats(costs)

	// Bisection over threshold index. Feasibility at a threshold is
	// checked heuristically, so "feasible(T)" is not perfectly
	// monotone; bisection finds the smallest index the packer can
	// certify, which upper-bounds the true optimum.
	consPh := mm.phases.Child("construction")
	lo, hi := 0, len(costs)-1
	var best *gap.Assignment
	if a := mm.packUnder(in, costs[hi]); a != nil {
		best = a
	} else {
		consPh.End()
		return nil, fmt.Errorf("assign/minmax: infeasible even without a delay cap: %w", gap.ErrInfeasible)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if a := mm.packUnder(in, costs[mid]); a != nil {
			best = a
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	consPh.End()
	// Polish total delay while respecting the achieved threshold.
	polishPh := mm.phases.Child("polish")
	defer polishPh.End()
	masked := maskAbove(in, in.MaxCost(best))
	ev := gap.NewEvaluator(masked)
	ev.Reset(best.Of)
	for round := 0; round < 50; round++ {
		if !improveOnce(ev) {
			break
		}
	}
	return finish(in, ev.Assignment(best.Of), "minmax")
}

// packUnder tries to build a feasible assignment using only cells with
// delay <= t; nil when the packer fails.
func (mm *MinMax) packUnder(in *gap.Instance, t float64) *gap.Assignment {
	masked := maskAbove(in, t)
	a, err := startFeasible(masked, xrand.SplitSeed(mm.seed, fmt.Sprintf("minmax-%g", t)))
	if err != nil {
		return nil
	}
	return a
}

// maskAbove returns a copy of in whose cells with cost > t+1e-12 are
// unreachable: a deadline of t+1e-12 on every device, positive because
// costs are non-negative.
func maskAbove(in *gap.Instance, t float64) *gap.Instance {
	budget := make([]float64, in.N())
	for i := range budget {
		budget[i] = t + 1e-12
	}
	masked, err := gap.WithDeadlines(in, budget)
	if err != nil {
		// Construction from a valid instance cannot fail.
		panic(fmt.Sprintf("assign/minmax: internal error building mask: %v", err))
	}
	return masked
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
