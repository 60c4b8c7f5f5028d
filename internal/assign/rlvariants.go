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
	env := t.env
	m := in.M()
	tableA, tableB := t.q, newQTable(m, len(env.key), env.rowInit)
	var actBuf, nextBuf []int
	valsA, valsB := make([]float64, m), make([]float64, m)
	nextValsA, nextValsB := make([]float64, m), make([]float64, m)
	sumRow := make([]float64, m)
	return t.train(func() (float64, bool) {
		cost := 0.0
		actBuf = env.feasibleActions(actBuf)
		if len(actBuf) == 0 {
			return cost, false
		}
		hA, hB := env.row(tableA), env.row(tableB)
		rowA, rowB := tableA.values(hA, valsA), tableB.values(hB, valsB)
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
			updT, updH, upd := tableA, hA, rowA
			if !updateA {
				updT, updH, upd = tableB, hB, rowB
			}
			if env.done() {
				updT.set(updH, a, upd[a]+alpha*(r-upd[a]))
				return cost, true
			}
			nextBuf = env.feasibleActions(nextBuf)
			if len(nextBuf) == 0 {
				updT.set(updH, a, upd[a]+alpha*(r-env.penalty-upd[a]))
				return cost, false
			}
			nhA, nhB := env.row(tableA), env.row(tableB)
			nA, nB := tableA.values(nhA, nextValsA), tableB.values(nhB, nextValsB)
			nUpd, nEval := nA, nB
			if !updateA {
				nUpd, nEval = nB, nA
			}
			am, _ := bestQ(nUpd, nextBuf)
			updT.set(updH, a, upd[a]+alpha*(r+nEval[am]-upd[a]))
			hA, hB, rowA, rowB, actBuf, nextBuf = nhA, nhB, nA, nB, nextBuf, actBuf
			valsA, nextValsA = nextValsA, valsA
			valsB, nextValsB = nextValsB, valsB
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
	env, qt := t.env, t.q
	var actBuf, nextBuf []int
	vals, nextVals := make([]float64, in.M()), make([]float64, in.M())
	return t.train(func() (float64, bool) {
		cost := 0.0
		actBuf = env.feasibleActions(actBuf)
		if len(actBuf) == 0 {
			return cost, false
		}
		h := env.row(qt)
		row := qt.values(h, vals)
		for {
			a := t.pick(row, actBuf)
			i := env.device()
			r := env.take(a)
			cost -= r
			t.of[i] = a

			if env.done() {
				qt.set(h, a, row[a]+alpha*(r-row[a]))
				return cost, true
			}
			nextBuf = env.feasibleActions(nextBuf)
			if len(nextBuf) == 0 {
				qt.set(h, a, row[a]+alpha*(r-env.penalty-row[a]))
				return cost, false
			}
			nh := env.row(qt)
			nextRow := qt.values(nh, nextVals)
			target := r + expectedValue(nextRow, nextBuf, t.eps)
			qt.set(h, a, row[a]+alpha*(target-row[a]))
			h, row, actBuf, nextBuf = nh, nextRow, nextBuf, actBuf
			vals, nextVals = nextVals, vals
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
