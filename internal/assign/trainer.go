package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// trainer owns what the RL assigners share: defaulted parameters, the
// placement MDP and (once primed) its primary Q table, the incumbent, the
// epsilon schedule, best-episode tracking, the final exploitation rollout
// and the "no feasible episode" error. Each assigner supplies only its
// episode body, so every variant honours the same RLParams switches.
type trainer struct {
	name string
	in   *gap.Instance
	p    RLParams
	env  *mdp
	q    *qtable
	src  *xrand.Source
	// eps is the current exploration rate; train decays it after every
	// episode.
	eps float64
	// of is the placement the current episode (or rollout) writes.
	of []int
	// act and vals are behave's feasible-action and Q-value buffers and
	// weights explore's softmax buffer, all reused across calls.
	act     []int
	vals    []float64
	weights []float64

	bestOf   []int
	bestCost float64
	found    bool

	// progress, when non-nil, receives the best cost after each episode
	// (+Inf before the first feasible one).
	progress obs.ProgressSink
}

// newTrainer defaults params and builds the MDP and an empty incumbent;
// call prime to seed the Q rows, create the Q table and seed the
// incumbent before training.
func newTrainer(name string, in *gap.Instance, params RLParams, src *xrand.Source) *trainer {
	p := params.withDefaults()
	return &trainer{
		name:     name,
		in:       in,
		p:        p,
		env:      newMDP(in, p.LoadLevels),
		src:      src,
		eps:      epsilon0,
		of:       make([]int, in.N()),
		vals:     make([]float64, in.M()),
		bestOf:   make([]int, in.N()),
		bestCost: math.Inf(1),
	}
}

// keep makes of, at the given cost, the incumbent.
func (t *trainer) keep(cost float64, of []int) {
	t.bestCost = cost
	copy(t.bestOf, of)
	t.found = true
}

// prime builds the MDP's Q-row seeds, creates the Q table and seeds the
// incumbent with one pure-exploitation rollout (with cost-seeded Q rows
// this reproduces min-delay greedy) plus, unless NoWarmStart is set, the
// regret-greedy constructive solution when that heuristic succeeds. The
// returned assignment can then never be worse than either constructive
// baseline: the standard warm start that makes episodic search an
// anytime improver, whose episodes only improve on it.
func (t *trainer) prime() {
	t.env.seedRows(!t.p.NoCostSeeding)
	t.q = newQTable(t.in.M(), len(t.env.key), t.env.rowInit)
	if c, ok := t.rollout(); ok {
		t.keep(c, t.of)
	}
	if t.p.NoWarmStart {
		return
	}
	if rg, err := NewRegretGreedy().Assign(t.in); err == nil {
		if c := t.in.TotalCost(rg); c < t.bestCost {
			t.keep(c, rg.Of)
		}
	}
}

// rollout performs one epsilon=0 episode against t.q, writing the
// placement into t.of. It reports the episode cost and whether a complete
// feasible placement was reached. Q rows touched are created but not
// set.
func (t *trainer) rollout() (float64, bool) {
	env := t.env
	env.reset()
	cost := 0.0
	for !env.done() {
		a, _, ok := env.greedy(t.q, env.row(t.q))
		if !ok {
			return 0, false
		}
		i := env.device()
		cost -= env.take(a)
		t.of[i] = a
	}
	return cost, true
}

// pick chooses a feasible action: explore with probability eps,
// otherwise exploit the row.
func (t *trainer) pick(row []float64, feasible []int) int {
	if !t.src.Bernoulli(t.eps) {
		a, _ := bestQ(row, feasible)
		return a
	}
	return t.explore(row, feasible)
}

// behave is pick for the current state's row h of t.q, whose greedy
// action, the one pick would exploit, is given: the row and the
// feasible edges are read only when the coin says explore, and the
// draws are pick's.
func (t *trainer) behave(h qrow, greedy int) int {
	if !t.src.Bernoulli(t.eps) {
		return greedy
	}
	t.act = t.env.feasibleActions(t.act)
	return t.explore(t.q.values(h, t.vals), t.act)
}

// explore draws an exploratory action from the feasible edges.
// Exploration is cost-biased (softmax over the row rather than uniform)
// so exploratory episodes sample plausible alternative placements
// instead of arbitrary far-away edges — uniform exploration wastes most
// episodes on assignments no policy would choose. UniformExploration
// (the F11 ablation) restores the uniform draw.
func (t *trainer) explore(row []float64, feasible []int) int {
	if t.p.UniformExploration {
		return feasible[t.src.Intn(len(feasible))]
	}
	// Softmax over Q values with a temperature tied to their spread.
	best := math.Inf(-1)
	worst := math.Inf(1)
	for _, a := range feasible {
		if row[a] > best {
			best = row[a]
		}
		if row[a] < worst {
			worst = row[a]
		}
	}
	temp := (best - worst) / 3
	if temp <= eps0Temp {
		return feasible[t.src.Intn(len(feasible))] // flat row: uniform
	}
	t.weights = t.weights[:0]
	for _, a := range feasible {
		t.weights = append(t.weights, math.Exp((row[a]-best)/temp))
	}
	return feasible[t.src.Choice(t.weights)]
}

// eps0Temp guards against zero/negligible Q spread in softmax exploration.
const eps0Temp = 1e-12

// train runs p.Episodes episodes and returns the best feasible placement
// seen. Each episode starts from a reset MDP; the body places devices into
// t.of and reports the episode's cost and whether it placed all of them.
// After every episode the incumbent and the progress sink are updated and
// eps decays. With final set, one more exploitation rollout over the
// learned table competes for the incumbent.
func (t *trainer) train(episode func() (cost float64, feasible bool), final bool) (*gap.Assignment, error) {
	for ep := 0; ep < t.p.Episodes; ep++ {
		t.env.reset()
		if c, ok := episode(); ok && c < t.bestCost {
			t.keep(c, t.of)
		}
		obs.EmitIter(t.progress, t.name, ep, t.bestCost, t.found)
		t.eps *= epsilonDecay
		if t.eps < epsilonMin {
			t.eps = epsilonMin
		}
	}
	if final {
		if c, ok := t.rollout(); ok && c < t.bestCost {
			t.keep(c, t.of)
		}
	}
	if !t.found {
		return nil, fmt.Errorf("assign/%s: no feasible episode in %d attempts: %w", t.name, t.p.Episodes, gap.ErrInfeasible)
	}
	return finish(t.in, t.bestOf, t.name)
}
