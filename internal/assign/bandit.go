package assign

import (
	"math"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// Bandit is the stateless RL ablation: each device position runs an
// independent UCB1 bandit over edges, with feasibility masking. It sees no
// load signature, so it measures how much the Q-learning state actually
// buys (experiment F8). It plays the RL assigners' default 400 episodes
// with UCB exploration coefficient sqrt(2).
type Bandit struct {
	seed int64
}

// NewBandit returns a UCB bandit assigner.
func NewBandit(seed int64) *Bandit { return &Bandit{seed: seed} }

// Name implements Assigner.
func (*Bandit) Name() string { return "bandit" }

// Assign implements Assigner.
func (b *Bandit) Assign(in *gap.Instance) (*gap.Assignment, error) {
	// One load level: the bandit ignores the state signature. It keeps no
	// Q table and trains from scratch, so the trainer is not primed and
	// builds no Q-row seeds.
	t := newTrainer("bandit", in, RLParams{LoadLevels: 1}, xrand.NewSplit(b.seed, "bandit"))
	env := t.env
	n, m := in.N(), in.M()

	// Per-position statistics.
	counts := make([][]float64, n)
	sums := make([][]float64, n)
	for k := range counts {
		counts[k] = make([]float64, m)
		sums[k] = make([]float64, m)
	}
	pulls := make([]float64, n)

	var actBuf, untried []int
	return t.train(func() (float64, bool) {
		cost := 0.0
		for !env.done() {
			s := env.step
			actBuf = env.feasibleActions(actBuf)
			if len(actBuf) == 0 {
				return cost, false
			}
			var a int
			a, untried = ucbPick(counts[s], sums[s], pulls[s], actBuf, untried, t.src)
			i := env.device()
			r := env.take(a)
			cost -= r
			t.of[i] = a
			counts[s][a]++
			sums[s][a] += r
			pulls[s]++
		}
		return cost, true
	}, false)
}

// ucbPick chooses among feasible arms by UCB1, preferring untried arms
// (random among them to break ties fairly). It lists the untried arms in
// buf and returns buf for the next call to reuse.
func ucbPick(counts, sums []float64, total float64, feasible, buf []int, src *xrand.Source) (int, []int) {
	untried := buf[:0]
	for _, a := range feasible {
		if counts[a] == 0 {
			untried = append(untried, a)
		}
	}
	if len(untried) > 0 {
		return untried[src.Intn(len(untried))], untried
	}
	best, bestV := feasible[0], math.Inf(-1)
	logT := math.Log(total + 1)
	for _, a := range feasible {
		v := sums[a]/counts[a] + math.Sqrt2*math.Sqrt(logT/counts[a])
		if v > bestV {
			best, bestV = a, v
		}
	}
	return best, untried
}
