package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// LocalSearch hill-climbs from a constructive start with shift moves
// (reassign one device) and swap moves (exchange two devices' edges),
// accepting only strict improvements, until a local optimum or
// localSearchRounds full sweeps. Moves are priced and applied through one
// gap.Evaluator, so each candidate costs O(1) and sweeps allocate nothing.
type LocalSearch struct {
	seed   int64
	phases *obs.Phase
}

// localSearchRounds caps the full improvement sweeps of one solve.
const localSearchRounds = 100

// SetPhases implements PhasedSolver: subsequent Assign calls emit
// "construction" and "improvement" spans under parent.
func (ls *LocalSearch) SetPhases(parent *obs.Phase) { ls.phases = parent }

// NewLocalSearch returns a local-search assigner seeded for its randomized
// start order.
func NewLocalSearch(seed int64) *LocalSearch { return &LocalSearch{seed: seed} }

// Name implements Assigner.
func (*LocalSearch) Name() string { return "local-search" }

// Assign implements Assigner.
func (ls *LocalSearch) Assign(in *gap.Instance) (*gap.Assignment, error) {
	consPh := ls.phases.Child("construction")
	start, err := startFeasible(in, ls.seed)
	consPh.End()
	if err != nil {
		return nil, fmt.Errorf("assign/local-search: %w", err)
	}
	ev := gap.NewEvaluator(in)
	ev.Reset(start.Of)
	impPh := ls.phases.Child("improvement")
	defer impPh.End()
	for round := 0; round < localSearchRounds; round++ {
		if !improveOnce(ev) {
			break
		}
	}
	return finish(in, ev.Assignment(start.Of), "local-search")
}

// improveOnce performs one full sweep of shift and swap moves, applying
// every strict improvement found; reports whether anything improved. The
// sweep order (devices ascending, edges ascending, moves applied as they
// are found) is part of the determinism contract: changing it changes
// which local optimum the search lands in.
func improveOnce(ev *gap.Evaluator) bool {
	improved := false
	in := ev.Instance()
	n, m := in.N(), in.M()
	residual := ev.Residuals()
	of := ev.Placement()
	// Shift moves.
	for i := 0; i < n; i++ {
		cur := of[i]
		cRow := in.CostRow(i)
		curCost := cRow[cur]
		for j := 0; j < m; j++ {
			if j == cur || cRow[j] >= curCost {
				continue
			}
			if in.WeightAt(i, j) > residual[j]+1e-12 {
				continue // does not fit
			}
			ev.Move(i, j)
			cur = j
			curCost = cRow[j]
			improved = true
		}
	}
	// Swap moves. The candidate test is written against the instance's
	// cells directly, kept inline because this O(n²) scan dominates the
	// sweep.
	for a := 0; a < n; a++ {
		cRowA := in.CostRow(a)
		for b := a + 1; b < n; b++ {
			ja, jb := of[a], of[b]
			if ja == jb {
				continue
			}
			cRowB := in.CostRow(b)
			delta := cRowA[jb] + cRowB[ja] - cRowA[ja] - cRowB[jb]
			if delta >= -1e-12 {
				continue
			}
			// Capacity check after removing both devices.
			resA := residual[ja] + in.WeightAt(a, ja)
			resB := residual[jb] + in.WeightAt(b, jb)
			if in.WeightAt(b, ja) > resA+1e-12 || in.WeightAt(a, jb) > resB+1e-12 {
				continue
			}
			if math.IsInf(cRowA[jb], 1) || math.IsInf(cRowB[ja], 1) {
				continue
			}
			ev.Swap(a, b)
			improved = true
		}
	}
	return improved
}

// startFeasible builds an initial feasible assignment: greedy first, then
// regret-greedy, then randomized restarts — local search, tabu, LNS and
// minmax start from it.
func startFeasible(in *gap.Instance, seed int64) (*gap.Assignment, error) {
	if a, err := NewGreedy().Assign(in); err == nil {
		return a, nil
	}
	if a, err := NewRegretGreedy().Assign(in); err == nil {
		return a, nil
	}
	for attempt := int64(0); attempt < 20; attempt++ {
		if a, err := NewRandom(xrand.SplitSeed(seed, fmt.Sprintf("restart-%d", attempt))).Assign(in); err == nil {
			return a, nil
		}
	}
	return nil, gap.ErrInfeasible
}
