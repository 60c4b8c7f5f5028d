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
	var actBuf []int
	vals := make([]float64, in.M())

	// Per-step trajectory storage, reused across episodes. A step's
	// feasible set is feasible[lo:hi]: the sets of an episode share one
	// flat buffer.
	type step struct {
		h      qrow
		action int
		reward float64
		lo, hi int
	}
	traj := make([]step, 0, in.N())
	var feasible []int

	return t.train(func() (float64, bool) {
		traj = traj[:0]
		feasible = feasible[:0]
		cost := 0.0
		feasibleRun := true
		for !env.done() {
			actBuf = env.feasibleActions(actBuf)
			if len(actBuf) == 0 {
				feasibleRun = false
				break
			}
			h := env.row(qt)
			a := t.pick(qt.values(h, vals), actBuf)
			i := env.device()
			r := env.take(a)
			cost -= r
			t.of[i] = a
			lo := len(feasible)
			feasible = append(feasible, actBuf...)
			traj = append(traj, step{h: h, action: a, reward: r, lo: lo, hi: len(feasible)})
		}
		// Terminal value: 0 for a completed episode, a large penalty
		// for a dead end (the trajectory is punished through its tail).
		terminal := 0.0
		if !feasibleRun {
			terminal = -deadEndPenalty(in)
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
				next := traj[end]
				_, nv := bestQ(qt.values(next.h, vals), feasible[next.lo:next.hi])
				g += nv
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
