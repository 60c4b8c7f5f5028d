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
// accepting only strict improvements, until a local optimum or the move
// budget is reached. Moves are priced and applied through one
// gap.Evaluator, so each candidate costs O(1) and sweeps allocate nothing.
type LocalSearch struct {
	seed int64
	// MaxRounds caps full improvement sweeps; 0 means 100.
	MaxRounds int
	phases    *obs.Phase
}

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
	maxRounds := ls.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 100
	}
	impPh := ls.phases.Child("improvement")
	defer impPh.End()
	for round := 0; round < maxRounds; round++ {
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
		cRow, wRow := in.CostRow(i), in.WeightRow(i)
		curCost := cRow[cur]
		for j := 0; j < m; j++ {
			if j == cur || cRow[j] >= curCost {
				continue
			}
			if wRow[j] > residual[j]+1e-12 {
				continue // does not fit
			}
			ev.Move(i, j)
			cur = j
			curCost = cRow[j]
			improved = true
		}
	}
	// Swap moves. The candidate test is written against the instance rows
	// directly — same predicates as Evaluator.DeltaSwap/SwapFits, kept
	// inline because this O(n²) scan dominates the sweep.
	for a := 0; a < n; a++ {
		cRowA, wRowA := in.CostRow(a), in.WeightRow(a)
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
			wRowB := in.WeightRow(b)
			resA := residual[ja] + wRowA[ja]
			resB := residual[jb] + wRowB[jb]
			if wRowB[ja] > resA+1e-12 || wRowA[jb] > resB+1e-12 {
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
// regret-greedy, then randomized restarts — local search and annealing
// both start from it.
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

// SimulatedAnnealing explores shift/swap moves with Metropolis acceptance
// and geometric cooling, keeping the best feasible assignment seen.
type SimulatedAnnealing struct {
	seed int64
	// Iters is the number of proposals; 0 means 20000.
	Iters int
	// T0 and Cooling set the initial temperature and geometric decay; 0
	// means T0 = 10% of the start cost and Cooling = 0.9995.
	T0      float64
	Cooling float64
	phases  *obs.Phase
}

// SetPhases implements PhasedSolver: subsequent Assign calls emit
// "construction" and "improvement" spans under parent.
func (sa *SimulatedAnnealing) SetPhases(parent *obs.Phase) { sa.phases = parent }

// NewSimulatedAnnealing returns an annealing assigner with default
// schedule.
func NewSimulatedAnnealing(seed int64) *SimulatedAnnealing {
	return &SimulatedAnnealing{seed: seed}
}

// Name implements Assigner.
func (*SimulatedAnnealing) Name() string { return "sim-anneal" }

// Assign implements Assigner.
func (sa *SimulatedAnnealing) Assign(in *gap.Instance) (*gap.Assignment, error) {
	consPh := sa.phases.Child("construction")
	start, err := startFeasible(in, sa.seed)
	consPh.End()
	if err != nil {
		return nil, fmt.Errorf("assign/sim-anneal: %w", err)
	}
	src := xrand.NewSplit(sa.seed, "sa")
	ev := gap.NewEvaluator(in)
	ev.Reset(start.Of)
	cur := ev.Total()
	bestOf := ev.Assignment(start.Of)
	bestCost := cur

	iters := sa.Iters
	if iters <= 0 {
		iters = 20000
	}
	temp := sa.T0
	if temp <= 0 {
		temp = cur * 0.1 / float64(in.N())
		if temp <= 0 {
			temp = 1
		}
	}
	cooling := sa.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.9995
	}

	n, m := in.N(), in.M()
	impPh := sa.phases.Child("improvement")
	defer impPh.End()
	impPh.SetAttr("iters", iters)
	for it := 0; it < iters; it++ {
		if src.Bernoulli(0.7) {
			// Shift proposal.
			i := src.Intn(n)
			j := src.Intn(m)
			cur = proposeShift(ev, i, j, cur, temp, src)
		} else {
			// Swap proposal.
			a, b := src.Intn(n), src.Intn(n)
			if a != b {
				cur = proposeSwap(ev, a, b, cur, temp, src)
			}
		}
		if cur < bestCost-1e-12 {
			bestCost = cur
			bestOf = ev.Assignment(bestOf)
		}
		temp *= cooling
	}
	return finish(in, bestOf, "sim-anneal")
}

func metropolisAccept(delta, temp float64, src *xrand.Source) bool {
	if delta <= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return src.Bernoulli(math.Exp(-delta / temp))
}

func proposeShift(ev *gap.Evaluator, i, j int, cur, temp float64, src *xrand.Source) float64 {
	if j == ev.Of(i) || !ev.Fits(i, j) {
		return cur
	}
	delta := ev.DeltaMove(i, j)
	if !metropolisAccept(delta, temp, src) {
		return cur
	}
	ev.Move(i, j)
	return cur + delta
}

func proposeSwap(ev *gap.Evaluator, a, b int, cur, temp float64, src *xrand.Source) float64 {
	if ev.Of(a) == ev.Of(b) {
		return cur
	}
	if !ev.SwapFits(a, b) {
		return cur
	}
	delta := ev.DeltaSwap(a, b)
	if !metropolisAccept(delta, temp, src) {
		return cur
	}
	ev.Swap(a, b)
	return cur + delta
}
