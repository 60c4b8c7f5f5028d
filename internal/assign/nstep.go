package assign

import (
	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// NStepQLearning propagates reward information nStep steps back per
// update (episodic n-step Q-learning with per-episode batch updates): the
// TD target for step t is the sum of the next nStep rewards plus a
// bootstrap from the best feasible action nStep steps ahead. The longer
// horizon moves credit for capacity dead-ends toward the early placements
// that caused them.
type NStepQLearning struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	seed   int64
}

// nStep is the n-step backup horizon.
const nStep = 3

// NewNStepQLearning returns an n-step Q-learning assigner.
func NewNStepQLearning(seed int64) *NStepQLearning { return &NStepQLearning{seed: seed} }

// Name implements Assigner.
func (*NStepQLearning) Name() string { return "nstep-qlearning" }

// Assign implements Assigner.
func (nq *NStepQLearning) Assign(in *gap.Instance) (*gap.Assignment, error) {
	t := newTrainer("nstep-qlearning", in, nq.Params, xrand.NewSplit(nq.seed, "nstep-q"))
	t.prime()
	env, qt := t.env, t.q

	// Per-step trajectory storage, reused across episodes. A step keeps
	// the greedy value of the state it acted in: the episode sets no
	// value before its backward pass, which sets only earlier steps'
	// rows, so that is the value a bootstrap from the state reads.
	type step struct {
		h      qrow
		action int
		reward float64
		best   float64
	}
	traj := make([]step, 0, in.N())

	return t.train(func() (float64, bool) {
		traj = traj[:0]
		cost := 0.0
		feasibleRun := true
		for !env.done() {
			h := env.row(qt)
			a, best, ok := env.greedy(qt, h)
			if !ok {
				feasibleRun = false
				break
			}
			a = t.behave(h, a)
			i := env.device()
			r := env.take(a)
			cost -= r
			t.of[i] = a
			traj = append(traj, step{h: h, action: a, reward: r, best: best})
		}
		// Terminal value: 0 for a completed episode, a large penalty
		// for a dead end (the trajectory is punished through its tail).
		terminal := 0.0
		if !feasibleRun {
			terminal = -env.penalty
		}
		// Batch n-step backward updates against the current table.
		T := len(traj)
		for s := 0; s < T; s++ {
			g := 0.0
			end := s + nStep
			if end > T {
				end = T
			}
			for k := s; k < end; k++ {
				g += traj[k].reward
			}
			if end < T {
				// Bootstrap from the state entered at step `end`,
				// which is the state acted on at index `end` of
				// the trajectory.
				g += traj[end].best
			} else {
				g += terminal
			}
			h, a := traj[s].h, traj[s].action
			old := qt.get(h, a)
			qt.set(h, a, old+alpha*(g-old))
		}
		return cost, feasibleRun
	}, true)
}
