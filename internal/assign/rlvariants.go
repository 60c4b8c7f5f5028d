package assign

import (
	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// DoubleQLearning is the double-estimator variant of the RL assigner: two
// Q tables are updated alternately, each using the other to evaluate its
// argmax, which removes the positive maximization bias of plain Q-learning
// (van Hasselt, 2010). Part of the F8 ablation.
type DoubleQLearning struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	seed   int64
}

// NewDoubleQLearning returns a double Q-learning assigner.
func NewDoubleQLearning(seed int64) *DoubleQLearning { return &DoubleQLearning{seed: seed} }

// Name implements Assigner.
func (*DoubleQLearning) Name() string { return "double-qlearning" }

// Assign implements Assigner.
func (dq *DoubleQLearning) Assign(in *gap.Instance) (*gap.Assignment, error) {
	t := newTrainer("double-qlearning", in, dq.Params, xrand.NewSplit(dq.seed, "double-q"))
	t.prime()
	env, p := t.env, t.p
	tableA, tableB := t.q, newQTable(in.M())
	var actBuf, nextBuf []int
	sumRow := make([]float64, in.M())
	return t.train(func() (float64, bool) {
		cost := 0.0
		actBuf = env.feasibleActions(actBuf)
		if len(actBuf) == 0 {
			return cost, false
		}
		rowA := env.row(tableA)
		rowB := env.row(tableB)
		for {
			// Behaviour policy acts on the sum of the two tables.
			for j := range sumRow {
				sumRow[j] = rowA[j] + rowB[j]
			}
			a := t.pick(sumRow, actBuf)
			i := env.device()
			r := env.take(a)
			cost -= r
			t.of[i] = a

			// Flip a coin: update one table using the other as
			// the evaluator of its own argmax.
			updateA := t.src.Bernoulli(0.5)
			upd := rowA
			if !updateA {
				upd = rowB
			}
			if env.done() {
				upd[a] += p.Alpha * (r - upd[a])
				return cost, true
			}
			nextBuf = env.feasibleActions(nextBuf)
			if len(nextBuf) == 0 {
				upd[a] += p.Alpha * (r - deadEndPenalty(in) - upd[a])
				return cost, false
			}
			nA := env.row(tableA)
			nB := env.row(tableB)
			nUpd, nEval := nA, nB
			if !updateA {
				nUpd, nEval = nB, nA
			}
			am, _ := bestQ(nUpd, nextBuf)
			target := r + p.Gamma*nEval[am]
			upd[a] += p.Alpha * (target - upd[a])
			rowA, rowB, actBuf, nextBuf = nA, nB, nextBuf, actBuf
		}
	}, false)
}

// ExpectedSARSA replaces the SARSA sample of the next action with its
// expectation under the epsilon-greedy policy, reducing update variance.
// Part of the F8 ablation.
type ExpectedSARSA struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	seed   int64
}

// NewExpectedSARSA returns an expected-SARSA assigner.
func NewExpectedSARSA(seed int64) *ExpectedSARSA { return &ExpectedSARSA{seed: seed} }

// Name implements Assigner.
func (*ExpectedSARSA) Name() string { return "expected-sarsa" }

// Assign implements Assigner.
func (es *ExpectedSARSA) Assign(in *gap.Instance) (*gap.Assignment, error) {
	t := newTrainer("expected-sarsa", in, es.Params, xrand.NewSplit(es.seed, "expected-sarsa"))
	t.prime()
	env, p := t.env, t.p
	var actBuf, nextBuf []int
	return t.train(func() (float64, bool) {
		cost := 0.0
		actBuf = env.feasibleActions(actBuf)
		if len(actBuf) == 0 {
			return cost, false
		}
		row := env.row(t.q)
		for {
			a := t.pick(row, actBuf)
			i := env.device()
			r := env.take(a)
			cost -= r
			t.of[i] = a

			if env.done() {
				row[a] += p.Alpha * (r - row[a])
				return cost, true
			}
			nextBuf = env.feasibleActions(nextBuf)
			if len(nextBuf) == 0 {
				row[a] += p.Alpha * (r - deadEndPenalty(in) - row[a])
				return cost, false
			}
			nextRow := env.row(t.q)
			target := r + p.Gamma*expectedValue(nextRow, nextBuf, t.eps)
			row[a] += p.Alpha * (target - row[a])
			row, actBuf, nextBuf = nextRow, nextBuf, actBuf
		}
	}, false)
}

// expectedValue computes E[Q(s', A')] under an epsilon-greedy policy that
// explores uniformly over the feasible set (a simplification of the
// softmax behaviour, adequate as an update target).
func expectedValue(row []float64, feasible []int, eps float64) float64 {
	_, best := bestQ(row, feasible)
	mean := 0.0
	for _, a := range feasible {
		mean += row[a]
	}
	mean /= float64(len(feasible))
	return (1-eps)*best + eps*mean
}
