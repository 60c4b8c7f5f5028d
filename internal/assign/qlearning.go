package assign

import (
	"fmt"
	"math"
	"math/bits"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// RLParams are the shared hyper-parameters of the tabular RL assigners.
// Zero fields take the documented defaults. The learning schedule is
// fixed (the constants below), and targets are undiscounted: the
// placement MDP is a finite horizon with additive delay.
type RLParams struct {
	// Episodes is the number of training episodes (default 400).
	Episodes int
	// LoadLevels quantizes each edge's utilization into this many levels
	// when forming the state signature (default 4). Level count trades
	// table size against state resolution; the F8 ablation sweeps it.
	LoadLevels int

	// Ablation switches (experiment F11). Production configurations
	// leave all three false.
	//
	// NoCostSeeding initializes Q rows to zero instead of the negated
	// delay, so the untrained policy has no domain knowledge.
	NoCostSeeding bool
	// NoWarmStart skips priming the incumbent with the regret-greedy
	// constructive solution.
	NoWarmStart bool
	// UniformExploration replaces cost-biased softmax exploration with
	// uniform random choice over feasible edges.
	UniformExploration bool
}

// The fixed learning schedule of every RL assigner: learning rate alpha,
// and exploration rate eps(k) = max(epsilonMin, epsilon0 * epsilonDecay^k)
// after k episodes.
const (
	alpha        = 0.3
	epsilon0     = 0.4
	epsilonMin   = 0.02
	epsilonDecay = 0.99
)

func (p RLParams) withDefaults() RLParams {
	if p.Episodes <= 0 {
		p.Episodes = 400
	}
	if p.LoadLevels <= 0 {
		p.LoadLevels = 4
	}
	return p
}

// mdp is the episodic placement MDP shared by the RL assigners: step t
// places device order[t]; the state is (t, quantized utilization vector);
// an action picks a feasible edge; the reward is the negated delay.
type mdp struct {
	in       *gap.Instance
	order    []int
	levels   int
	residual []float64
	loads    []float64
	// key packs every edge's quantized load level, width bits per edge:
	// edge j's level is bits [j*width, (j+1)*width) of the words read as
	// one little-endian bit string, so a field may straddle two words.
	// take and reset keep it current; with step it is the state the Q
	// table is keyed by.
	width int
	key   []uint64
	step  int
	// rowInit[t] is the Q-row initialization for any state at step t;
	// the Q tables read it by reference. It, cands and penalty are nil
	// until seedRows.
	rowInit [][]float64
	// cands[candStart[i]:candStart[i+1]] are device i's reachable edges
	// in the order bestQ ranks them in an init row: by decreasing init
	// value, ties by index. That is ascending delay under cost seeding
	// and index order without it.
	cands, candStart []int32
	// penalty is deadEndPenalty(in), computed once per solve.
	penalty float64
	// act is greedy's feasible-action buffer for spilled rows.
	act []int
}

// newMDP builds the MDP's episode state: the placement order, the
// residual capacities and the packed load key. What only a Q table reads
// — the init rows, the candidate order and the dead-end penalty — is
// built by seedRows.
func newMDP(in *gap.Instance, levels int) *mdp {
	edges := in.M()
	width := bits.Len(uint(levels - 1))
	return &mdp{
		in:       in,
		order:    byDecreasingLoad(in),
		levels:   levels,
		residual: make([]float64, edges),
		loads:    make([]float64, edges),
		width:    width,
		key:      make([]uint64, (edges*width+63)/64),
	}
}

// seedRows builds the Q tables' init rows, with or without cost seeding,
// each device's candidate order and the dead-end penalty.
func (m *mdp) seedRows(costSeed bool) {
	in := m.in
	n, edges := in.N(), in.M()
	m.penalty = deadEndPenalty(in)
	// Cost-seeded Q initialization: a fresh row for step t starts at
	// -cost(device(t), j), so the untrained greedy policy already acts
	// like min-delay greedy and learning only has to correct for
	// capacity interactions. Unreachable edges start at -Inf and are
	// never picked either way.
	m.rowInit = make([][]float64, n)
	flat := make([]float64, n*edges)
	for t, dev := range m.order {
		row := flat[t*edges : (t+1)*edges : (t+1)*edges]
		for j, c := range in.CostRow(dev) {
			switch {
			case math.IsInf(c, 1):
				row[j] = math.Inf(-1)
			case costSeed:
				row[j] = -c
			}
		}
		m.rowInit[t] = row
	}
	if costSeed {
		m.cands, m.candStart = moveCandidates(in)
	} else {
		m.cands, m.candStart = reachableEdges(in)
	}
}

// reset starts a new episode.
func (m *mdp) reset() {
	copy(m.residual, m.in.Capacity)
	clear(m.loads)
	for j := range m.loads {
		m.setLevel(j)
	}
	m.step = 0
}

// done reports whether all devices are placed.
func (m *mdp) done() bool { return m.step >= len(m.order) }

// device returns the device placed at the current step.
func (m *mdp) device() int { return m.order[m.step] }

// levelOf quantizes edge j's utilization, load/capacity clipped to
// [0, 1), into one of the MDP's levels; zero-capacity edges are always
// at the top level.
func (m *mdp) levelOf(j int) uint64 {
	level := m.levels - 1
	if m.in.Capacity[j] > 0 {
		u := m.loads[j] / m.in.Capacity[j]
		if u >= 1 {
			u = 1 - 1e-9
		}
		level = int(u * float64(m.levels))
	}
	return uint64(level)
}

// setLevel writes edge j's current level into its key field.
func (m *mdp) setLevel(j int) {
	if m.width == 0 {
		return // one level: the key is empty
	}
	level, mask := m.levelOf(j), uint64(1)<<m.width-1
	pos := j * m.width
	w, s := pos/64, uint(pos%64)
	m.key[w] = m.key[w]&^(mask<<s) | level<<s
	if s+uint(m.width) > 64 {
		m.key[w+1] = m.key[w+1]&^(mask>>(64-s)) | level>>(64-s)
	}
}

// feasibleActions lists edges with remaining capacity for the current
// device, the edges fits accepts, reading the device's cost row once.
// The returned slice is reused across calls.
func (m *mdp) feasibleActions(buf []int) []int {
	buf = buf[:0]
	i := m.device()
	cost := m.in.CostRow(i)
	residual := m.residual[:len(cost)]
	for j, c := range cost {
		if m.in.WeightAt(i, j) <= residual[j]+1e-12 && !math.IsInf(c, 1) {
			buf = append(buf, j)
		}
	}
	return buf
}

// row returns the handle of the current state's row of q.
func (m *mdp) row(q *qtable) qrow { return q.row(m.step, m.key) }

// take places the current device on edge j, returning the reward.
func (m *mdp) take(j int) float64 {
	i := m.device()
	w := m.in.WeightAt(i, j)
	m.residual[j] -= w
	m.loads[j] += w
	m.setLevel(j)
	m.step++
	return -m.in.CostAt(i, j)
}

// bestQ returns the feasible action with maximal Q and its value; the
// lowest index wins a tie, and if no value exceeds -Inf the first
// feasible action is returned with value -Inf.
func bestQ(row []float64, feasible []int) (int, float64) {
	best, bestV := feasible[0], math.Inf(-1)
	for _, a := range feasible {
		if row[a] > bestV {
			best, bestV = a, row[a]
		}
	}
	return best, bestV
}

// greedy returns what bestQ(q.values(h, buf), m.feasibleActions(buf))
// returns for the current state's row h, bit for bit; ok is false exactly
// when no edge fits. Only a spilled row is scanned, by those two calls.
// A row with no override reads its step's init vector, whose best
// fitting edge is the first in the device's candidate order that fits.
// A row with an inline override weighs the override against the first
// fitting candidate other than its action, under bestQ's lowest-index
// tie rule.
func (m *mdp) greedy(q *qtable, h qrow) (a int, v float64, ok bool) {
	i := m.device()
	over, ov, spilled := q.override(h)
	if spilled != nil {
		m.act = m.feasibleActions(m.act)
		if len(m.act) == 0 {
			return 0, 0, false
		}
		a, v = bestQ(spilled, m.act)
		return a, v, true
	}
	init := m.rowInit[m.step]
	b := -1
	for _, j := range m.cands[m.candStart[i]:m.candStart[i+1]] {
		// fits, whose reachability test every candidate passes.
		if int(j) != over && m.in.WeightAt(i, int(j)) <= m.residual[j]+1e-12 {
			b = int(j)
			break
		}
	}
	if over >= 0 && fits(m.in, m.residual, i, over) && (b < 0 || ov > init[b] || ov == init[b] && over < b) {
		if math.IsNaN(ov) {
			ov = math.Inf(-1) // bestQ never takes a NaN value
		}
		return over, ov, true
	}
	if b < 0 {
		return 0, 0, false
	}
	return b, init[b], true
}

// QLearning is the paper's primary heuristic: tabular Q-learning over the
// placement MDP with load-quantized states, feasibility-masked actions
// (overload is structurally impossible) and an epsilon-greedy schedule.
// The best feasible episode ever seen is returned, which makes the
// algorithm an anytime improver over its own greedy rollouts.
type QLearning struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	seed   int64

	// progress, when non-nil, receives one IterEvent per episode whose
	// BestCost is the best total cost found so far: the convergence
	// curve. Strictly observational.
	progress obs.ProgressSink
}

// SetProgress implements ProgressReporter: sink receives one event per
// training episode of subsequent Assign calls.
func (q *QLearning) SetProgress(sink obs.ProgressSink) { q.progress = sink }

// NewQLearning returns a Q-learning assigner with default parameters.
func NewQLearning(seed int64) *QLearning { return &QLearning{seed: seed} }

// Name implements Assigner.
func (*QLearning) Name() string { return "qlearning" }

// Assign implements Assigner.
func (q *QLearning) Assign(in *gap.Instance) (*gap.Assignment, error) {
	t := newTrainer("qlearning", in, q.Params, xrand.NewSplit(q.seed, "qlearning"))
	t.progress = q.progress
	t.prime()
	env, qt := t.env, t.q
	return t.train(func() (float64, bool) {
		cost := 0.0
		h := env.row(qt)
		a, _, ok := env.greedy(qt, h)
		if !ok {
			return cost, false
		}
		for {
			a = t.behave(h, a)
			old := qt.get(h, a)
			i := env.device()
			r := env.take(a)
			cost -= r
			t.of[i] = a

			if env.done() {
				qt.set(h, a, old+alpha*(r-old))
				return cost, true
			}
			// The next state's greedy action is both the TD target's
			// argmax and the action the next step exploits.
			nh := env.row(qt)
			na, nv, ok := env.greedy(qt, nh)
			if !ok {
				// Next state is a dead end: large penalty as the
				// terminal value.
				qt.set(h, a, old+alpha*(r-env.penalty-old))
				return cost, false
			}
			qt.set(h, a, old+alpha*(r+nv-old))
			h, a = nh, na
		}
	}, true)
}

// deadEndPenalty scales the infeasibility punishment to the instance's
// cost magnitude so it dominates any delay difference.
func deadEndPenalty(in *gap.Instance) float64 {
	max := 0.0
	for i := 0; i < in.N(); i++ {
		for _, c := range in.CostRow(i) {
			if !math.IsInf(c, 1) && c > max {
				max = c
			}
		}
	}
	return (max + 1) * float64(in.N())
}

// SARSA is the on-policy variant of the RL assigner: the TD target uses
// the action the behaviour policy actually takes next. Kept as an
// ablation/second heuristic; in the evaluation it tracks Q-learning
// closely.
type SARSA struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	seed   int64
}

// NewSARSA returns a SARSA assigner with default parameters.
func NewSARSA(seed int64) *SARSA { return &SARSA{seed: seed} }

// Name implements Assigner.
func (*SARSA) Name() string { return "sarsa" }

// Assign implements Assigner.
func (s *SARSA) Assign(in *gap.Instance) (*gap.Assignment, error) {
	t := newTrainer("sarsa", in, s.Params, xrand.NewSplit(s.seed, "sarsa"))
	env := t.env
	// The body picks its first action before entering the update loop,
	// so an instance whose first device fits nowhere is rejected here.
	env.reset()
	if len(env.feasibleActions(nil)) == 0 {
		return nil, fmt.Errorf("assign/sarsa: no feasible first action: %w", gap.ErrInfeasible)
	}
	t.prime()
	qt := t.q
	return t.train(func() (float64, bool) {
		cost := 0.0
		h := env.row(qt)
		a, _, _ := env.greedy(qt, h)
		a = t.behave(h, a)
		for {
			old := qt.get(h, a)
			i := env.device()
			r := env.take(a)
			cost -= r
			t.of[i] = a

			if env.done() {
				qt.set(h, a, old+alpha*(r-old))
				return cost, true
			}
			nh := env.row(qt)
			na, _, ok := env.greedy(qt, nh)
			if !ok {
				qt.set(h, a, old+alpha*(r-env.penalty-old))
				return cost, false
			}
			na = t.behave(nh, na)
			qt.set(h, a, old+alpha*(r+qt.get(nh, na)-old))
			h, a = nh, na
		}
	}, true)
}
