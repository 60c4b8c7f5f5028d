package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// Genetic is a steady-state genetic algorithm over assignments: tournament
// selection, uniform crossover, shift mutation, and a greedy repair
// operator that restores capacity feasibility after crossover.
type Genetic struct {
	// Population size (default 40), Generations (default 150),
	// MutationRate per gene (default 0.02), TournamentK (default 3).
	Population   int
	Generations  int
	MutationRate float64
	TournamentK  int
	seed         int64
	progress     obs.ProgressSink
}

// SetProgress implements ProgressReporter: sink receives one event per
// generation of subsequent Assign calls.
func (g *Genetic) SetProgress(sink obs.ProgressSink) { g.progress = sink }

// NewGenetic returns a GA assigner with default parameters.
func NewGenetic(seed int64) *Genetic { return &Genetic{seed: seed} }

// Name implements Assigner.
func (*Genetic) Name() string { return "genetic" }

// Assign implements Assigner.
func (g *Genetic) Assign(in *gap.Instance) (*gap.Assignment, error) {
	pop := g.Population
	if pop <= 0 {
		pop = 40
	}
	gens := g.Generations
	if gens <= 0 {
		gens = 150
	}
	mut := g.MutationRate
	if mut <= 0 {
		mut = 0.02
	}
	tk := g.TournamentK
	if tk <= 0 {
		tk = 3
	}
	src := xrand.NewSplit(g.seed, "genetic")
	n := in.N()

	// Seed population: greedy/regret plus randomized members.
	var population [][]int
	if a, err := NewGreedy().Assign(in); err == nil {
		population = append(population, a.Of)
	}
	if a, err := NewRegretGreedy().Assign(in); err == nil {
		population = append(population, a.Of)
	}
	for attempt := int64(0); len(population) < pop && attempt < int64(pop*4); attempt++ {
		if a, err := NewRandom(xrand.SplitSeed(g.seed, fmt.Sprintf("ga-seed-%d", attempt))).Assign(in); err == nil {
			population = append(population, a.Of)
		}
	}
	if len(population) == 0 {
		return nil, fmt.Errorf("assign/genetic: could not seed a feasible population: %w", gap.ErrInfeasible)
	}
	// Pad by cloning if feasible seeds were scarce.
	for len(population) < pop {
		clone := make([]int, n)
		copy(clone, population[src.Intn(len(population))])
		population = append(population, clone)
	}

	fitness := func(of []int) float64 {
		return in.CostOf(of)
	}
	rs := newRepairState(in)
	costs := make([]float64, len(population))
	for i, of := range population {
		costs[i] = fitness(of)
	}
	bestIdx := 0
	for i := range costs {
		if costs[i] < costs[bestIdx] {
			bestIdx = i
		}
	}
	bestOf := make([]int, n)
	copy(bestOf, population[bestIdx])
	bestCost := costs[bestIdx]

	tournament := func() int {
		winner := src.Intn(len(population))
		for k := 1; k < tk; k++ {
			c := src.Intn(len(population))
			if costs[c] < costs[winner] {
				winner = c
			}
		}
		return winner
	}

	child := make([]int, n)
	for gen := 0; gen < gens; gen++ {
		pa, pb := population[tournament()], population[tournament()]
		for i := 0; i < n; i++ {
			if src.Bernoulli(0.5) {
				child[i] = pa[i]
			} else {
				child[i] = pb[i]
			}
			if src.Bernoulli(mut) {
				child[i] = src.Intn(in.M())
			}
		}
		if !rs.repair(in, child, src) {
			obs.EmitIter(g.progress, "genetic", gen, bestCost, true)
			continue // unrepairable child: discard
		}
		c := fitness(child)
		// Steady-state replacement: displace the worst member.
		worst := 0
		for i := range costs {
			if costs[i] > costs[worst] {
				worst = i
			}
		}
		if c < costs[worst] {
			copy(population[worst], child)
			costs[worst] = c
			if c < bestCost {
				bestCost = c
				copy(bestOf, child)
			}
		}
		obs.EmitIter(g.progress, "genetic", gen, bestCost, true)
	}
	return finish(in, bestOf, "genetic")
}

// repairState holds the scratch buffers repair reuses across calls, so
// the per-generation (GA) and per-iteration (Lagrangian) repair step
// allocates nothing in steady state.
type repairState struct {
	residual []float64
	pending  []int
}

// newRepairState sizes the repair buffers for in.
func newRepairState(in *gap.Instance) *repairState {
	return &repairState{
		residual: make([]float64, in.M()),
		pending:  make([]int, 0, in.N()),
	}
}

// repair restores feasibility in place: devices on overloaded or
// unreachable edges are moved (lightest excess first) to the cheapest edge
// with room. Reports whether a feasible repair was found.
func (rs *repairState) repair(in *gap.Instance, of []int, src *xrand.Source) bool {
	m := in.M()
	residual := rs.residual
	copy(residual, in.Capacity)
	for i, j := range of {
		if j < 0 || j >= m || math.IsInf(in.CostAt(i, j), 1) {
			of[i] = -1
			continue
		}
		residual[j] -= in.WeightAt(i, j)
	}
	// Evict from overloaded edges until all fit. Evict the device whose
	// move is cheapest-looking (smallest weight) for gentler repair.
	for j := 0; j < m; j++ {
		for residual[j] < -1e-12 {
			evict := -1
			for i, cur := range of {
				if cur != j {
					continue
				}
				if evict < 0 || in.WeightAt(i, j) < in.WeightAt(evict, j) {
					evict = i
				}
			}
			if evict < 0 {
				return false
			}
			residual[j] += in.WeightAt(evict, j)
			of[evict] = -1
		}
	}
	// Place evicted/unassigned devices greedily (random tie ordering).
	pending := rs.pending[:0]
	for i, cur := range of {
		if cur < 0 {
			pending = append(pending, i)
		}
	}
	rs.pending = pending
	src.Shuffle(len(pending), func(a, b int) { pending[a], pending[b] = pending[b], pending[a] })
	for _, i := range pending {
		j := cheapestFeasible(in, residual, i)
		if j < 0 {
			return false
		}
		of[i] = j
		residual[j] -= in.WeightAt(i, j)
	}
	return true
}
