package assign

import (
	"fmt"
	"math"
	"slices"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// TabuSearch escapes the local optima that plain hill climbing stalls in:
// every iteration applies the best feasible shift move even if it worsens
// the objective, while a tabu list forbids undoing recent moves; an
// aspiration criterion overrides the list when a move would produce a new
// incumbent.
//
// Move evaluation runs on the gap.Evaluator delta kernel: per-device
// candidate edges are pre-sorted by delay once, so the best-admissible
// scan walks each device's candidates in ascending delta and stops at the
// first admissible one (and abandons the device as soon as its deltas
// can no longer beat the global best) instead of re-pricing all n×m
// moves. The selected move is identical to the full scan's — including
// tie-breaking — so results are bit-identical to the classic
// implementation; only the work per iteration shrinks.
//
// A solve makes up to tabuIters moves, and a reversed move stays
// forbidden for n/4+3 iterations on an instance of n devices.
type TabuSearch struct {
	seed     int64
	progress obs.ProgressSink
	phases   *obs.Phase
}

// SetProgress implements ProgressReporter: sink receives one event per
// tabu move of subsequent Assign calls.
func (ts *TabuSearch) SetProgress(sink obs.ProgressSink) { ts.progress = sink }

// SetPhases implements PhasedSolver: subsequent Assign calls emit
// "construction" and "improvement" spans under parent.
func (ts *TabuSearch) SetPhases(parent *obs.Phase) { ts.phases = parent }

// tabuIters is the move budget of one tabu solve.
const tabuIters = 2000

// NewTabuSearch returns a tabu-search assigner.
func NewTabuSearch(seed int64) *TabuSearch { return &TabuSearch{seed: seed} }

// Name implements Assigner.
func (*TabuSearch) Name() string { return "tabu" }

// reachableEdges lists every device's reachable (finite-delay) edges in
// index order, stored flat: device i's edges are
// edges[start[i]:start[i+1]].
func reachableEdges(in *gap.Instance) (edges []int32, start []int32) {
	n := in.N()
	edges = make([]int32, 0, n*in.M())
	start = make([]int32, n+1)
	for i := 0; i < n; i++ {
		start[i] = int32(len(edges))
		for j, c := range in.CostRow(i) {
			if !math.IsInf(c, 1) {
				edges = append(edges, int32(j))
			}
		}
	}
	start[n] = int32(len(edges))
	return edges, start
}

// moveCandidates is reachableEdges with each device's edges sorted by
// ascending delay with index-ascending tie order — the order in which
// shift deltas ascend.
func moveCandidates(in *gap.Instance) (cands []int32, start []int32) {
	cands, start = reachableEdges(in)
	for i := 0; i < in.N(); i++ {
		row := in.CostRow(i)
		slices.SortFunc(cands[start[i]:start[i+1]], func(a, b int32) int {
			switch {
			case row[a] < row[b]:
				return -1
			case row[a] > row[b]:
				return 1
			}
			return int(a - b)
		})
	}
	return cands, start
}

// Assign implements Assigner.
func (ts *TabuSearch) Assign(in *gap.Instance) (*gap.Assignment, error) {
	consPh := ts.phases.Child("construction")
	start, err := startFeasible(in, ts.seed)
	consPh.End()
	if err != nil {
		return nil, fmt.Errorf("assign/tabu: %w", err)
	}
	n, m := in.N(), in.M()
	tenure := n/4 + 3

	ev := gap.NewEvaluator(in)
	ev.Reset(start.Of)
	bestOf := ev.Assignment(start.Of)
	bestCost := ev.Total()
	cands, candStart := moveCandidates(in)
	// candW[k] is the weight of candidate k on its edge, so the scan's
	// fit test reads it beside the candidate.
	candW := make([]float64, len(cands))
	for i := 0; i < n; i++ {
		for k := candStart[i]; k < candStart[i+1]; k++ {
			candW[k] = in.WeightAt(i, int(cands[k]))
		}
	}
	residual := ev.Residuals()
	of := ev.Placement()

	// tabuUntil[i*m+j] bans placing device i on edge j until that
	// iteration index.
	tabuUntil := make([]int, n*m)

	impPh := ts.phases.Child("improvement")
	defer impPh.End()
	impPh.SetAttr("iters", tabuIters)
	for it := 0; it < tabuIters; it++ {
		// Best admissible shift move across the whole neighborhood.
		bi, bj := -1, -1
		bestDelta := math.Inf(1)
		cur := ev.Total()
		for i := 0; i < n; i++ {
			curJ := of[i]
			cRow := in.CostRow(i)
			curCost := cRow[curJ]
			tabuRow := tabuUntil[i*m : (i+1)*m]
			lo, hi := candStart[i], candStart[i+1]
			weights := candW[lo:hi]
			for k, j32 := range cands[lo:hi] {
				j := int(j32)
				if j == curJ {
					continue
				}
				delta := cRow[j] - curCost
				if delta >= bestDelta {
					// Candidates ascend in delta: nothing further for
					// this device can strictly beat the incumbent move.
					break
				}
				if weights[k] > residual[j]+1e-12 {
					continue // does not fit
				}
				if it < tabuRow[j] && cur+delta >= bestCost-1e-12 {
					continue // tabu and not aspirational
				}
				bestDelta, bi, bj = delta, i, j
				break // later candidates have delta >= bestDelta
			}
		}
		if bi < 0 {
			break // no admissible move
		}
		from := of[bi]
		ev.Move(bi, bj)
		// Forbid moving the device straight back.
		tabuUntil[bi*m+from] = it + tenure
		if ev.Total() < bestCost-1e-12 {
			bestCost = ev.Total()
			bestOf = ev.Assignment(bestOf)
		}
		obs.EmitIter(ts.progress, "tabu", it, bestCost, true)
	}
	return finish(in, bestOf, "tabu")
}

// LNS is a large-neighborhood search: repeatedly destroy a random fraction
// of the assignment (remove those devices) and repair it with regret-based
// reinsertion, accepting improvements. Destroy-and-repair escapes local
// structure that single-device moves cannot. A solve runs lnsIters
// rounds, each removing n/4+1 of the n devices.
type LNS struct {
	seed     int64
	progress obs.ProgressSink
	phases   *obs.Phase
}

// lnsIters is the number of destroy/repair rounds of one LNS solve.
const lnsIters = 60

// SetProgress implements ProgressReporter: sink receives one event per
// destroy/repair round of subsequent Assign calls.
func (l *LNS) SetProgress(sink obs.ProgressSink) { l.progress = sink }

// SetPhases implements PhasedSolver: subsequent Assign calls emit
// "construction" and "improvement" spans under parent, with one "repair"
// child span per reinsertion round.
func (l *LNS) SetPhases(parent *obs.Phase) { l.phases = parent }

// NewLNS returns a large-neighborhood-search assigner.
func NewLNS(seed int64) *LNS { return &LNS{seed: seed} }

// Name implements Assigner.
func (*LNS) Name() string { return "lns" }

// Assign implements Assigner.
func (l *LNS) Assign(in *gap.Instance) (*gap.Assignment, error) {
	consPh := l.phases.Child("construction")
	start, err := startFeasible(in, l.seed)
	consPh.End()
	if err != nil {
		return nil, fmt.Errorf("assign/lns: %w", err)
	}
	src := xrand.NewSplit(l.seed, "lns")
	n := in.N()
	k := n/4 + 1

	bestOf := make([]int, n)
	copy(bestOf, start.Of)
	bestCost := in.TotalCost(start)

	// One evaluator and one permutation buffer serve every round: the
	// destroy/repair loop allocates nothing in steady state.
	ev := gap.NewEvaluator(in)
	var rein reinserter
	perm := make([]int, n)
	impPh := l.phases.Child("improvement")
	defer impPh.End()
	impPh.SetAttr("iters", lnsIters)
	for it := 0; it < lnsIters; it++ {
		ev.Reset(bestOf)
		// Destroy: remove k random devices.
		src.PermInto(perm)
		removed := perm[:k]
		for _, i := range removed {
			ev.Unassign(i)
		}
		// Repair: regret-based reinsertion over the removed set.
		repairStart := impPh.NowMs()
		repaired := rein.reinsert(ev, removed)
		impPh.Span("repair", repairStart, impPh.NowMs(), nil)
		if repaired {
			// Acceptance compares the canonical device-order re-sum, not
			// the incrementally drifted total, so decisions land exactly
			// where the classic full TotalCost re-cost put them.
			if c := ev.RecomputeTotal(); c < bestCost-1e-12 {
				bestCost = c
				bestOf = ev.Assignment(bestOf)
			}
		}
		obs.EmitIter(l.progress, "lns", it, bestCost, true)
	}
	return finish(in, bestOf, "lns")
}

// reinserter holds the pending-device buffer regret reinsertion reuses
// across rounds.
type reinserter struct {
	pending []int
}

// reinsert places the removed devices back through ev (largest regret
// first); reports success. Pending devices are scanned in removal order —
// never a map — so regret ties break the same way on every run and LNS
// stays deterministic for a fixed seed.
func (rs *reinserter) reinsert(ev *gap.Evaluator, removed []int) bool {
	in := ev.Instance()
	m := in.M()
	residual := ev.Residuals()
	pending := append(rs.pending[:0], removed...)
	rs.pending = pending
	for len(pending) > 0 {
		bestDev, bestEdge := -1, -1
		bestAt := -1
		bestRegret := math.Inf(-1)
		for at, i := range pending {
			first, second, firstJ := math.Inf(1), math.Inf(1), -1
			cRow := in.CostRow(i)
			for j := 0; j < m; j++ {
				if in.WeightAt(i, j) > residual[j]+1e-12 || math.IsInf(cRow[j], 1) {
					continue // does not fit
				}
				c := cRow[j]
				switch {
				case c < first:
					second, first, firstJ = first, c, j
				case c < second:
					second = c
				}
			}
			if firstJ < 0 {
				return false
			}
			regret := second - first
			if math.IsInf(second, 1) {
				regret = math.Inf(1)
			}
			if regret > bestRegret {
				bestRegret, bestDev, bestEdge, bestAt = regret, i, firstJ, at
			}
		}
		ev.Place(bestDev, bestEdge)
		pending = append(pending[:bestAt], pending[bestAt+1:]...)
	}
	return true
}
