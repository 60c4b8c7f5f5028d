// Package assign implements the paper's contribution: heuristics that
// assign IoT devices to edge devices so that total communication delay is
// (near-)minimal and no edge device is overloaded. The primary algorithm is
// the reinforcement-learning assigner (Q-learning over an episodic
// placement MDP); the rest of the package provides the baselines the paper
// compares against, from trivial (random, round-robin) through greedy and
// metaheuristics (local search, tabu, LNS) to Lagrangian-relaxation- and
// LP-guided heuristics.
//
// All algorithms implement Assigner and are registered in a name-indexed
// registry so the experiment harness can sweep over them generically.
// Every algorithm is deterministic given its seed.
package assign

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"taccc/internal/gap"
)

// Assigner produces a feasible assignment for a GAP instance, or an error
// (wrapping gap.ErrInfeasible when no feasible assignment was found).
type Assigner interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Assign solves the instance. Implementations must not retain or
	// mutate the instance.
	Assign(in *gap.Instance) (*gap.Assignment, error)
}

// byDecreasingLoad returns device indices ordered by decreasing maximum
// weight (heaviest first), the canonical packing order: placing heavy
// devices first leaves flexibility for light ones.
func byDecreasingLoad(in *gap.Instance) []int {
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	heaviestFirst(in, order)
	return order
}

// heaviestFirst reorders the ascending device indices in order by
// decreasing MaxWeight, lower index first among equal weights: the order
// a stable sort by weight alone gives, from one weight read per device.
func heaviestFirst(in *gap.Instance, order []int) {
	type keyed struct {
		w float64
		i int
	}
	ks := make([]keyed, len(order))
	for k, i := range order {
		ks[k] = keyed{in.MaxWeight(i), i}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		switch {
		case a.w > b.w:
			return -1
		case a.w < b.w:
			return 1
		}
		return cmp.Compare(a.i, b.i)
	})
	for k, kw := range ks {
		order[k] = kw.i
	}
}

// residuals returns a fresh copy of the instance capacities.
func residuals(in *gap.Instance) []float64 {
	r := make([]float64, in.M())
	copy(r, in.Capacity)
	return r
}

// fits reports whether device i can be placed on edge j given residual
// capacity, with a small epsilon for floating-point accumulation.
func fits(in *gap.Instance, residual []float64, i, j int) bool {
	return in.WeightAt(i, j) <= residual[j]+1e-12 && !math.IsInf(in.CostAt(i, j), 1)
}

// cheapestFeasible returns the minimum-cost edge for device i with residual
// capacity, or -1 if none fits.
func cheapestFeasible(in *gap.Instance, residual []float64, i int) int {
	best, bestCost := -1, math.Inf(1)
	for j, c := range in.CostRow(i) {
		if c < bestCost && fits(in, residual, i, j) {
			best, bestCost = j, c
		}
	}
	return best
}

// finish validates of as a complete feasible assignment of in.
func finish(in *gap.Instance, of []int, algo string) (*gap.Assignment, error) {
	a, err := gap.NewAssignment(in, of)
	if err != nil {
		return nil, fmt.Errorf("assign/%s: %w", algo, err)
	}
	if !in.Feasible(a) {
		return nil, fmt.Errorf("assign/%s: produced overloaded assignment: %w", algo, gap.ErrInfeasible)
	}
	return a, nil
}

// Factory builds an assigner from a seed; the registry stores factories so
// each experiment replication gets an independently seeded instance.
type Factory func(seed int64) Assigner

// registryEntry pairs a canonical name with its factory.
type registryEntry struct {
	name    string
	factory Factory
}

// Registry is an ordered name->factory table of assignment algorithms.
type Registry struct {
	entries []registryEntry
}

// NewRegistry returns a registry pre-populated with every algorithm in this
// package, in report order (weak baselines first, the paper's algorithm
// last).
func NewRegistry() *Registry {
	r := &Registry{}
	r.Register("random", func(seed int64) Assigner { return NewRandom(seed) })
	r.Register("round-robin", func(int64) Assigner { return NewRoundRobin() })
	r.Register("first-fit", func(int64) Assigner { return NewFirstFit() })
	r.Register("greedy", func(int64) Assigner { return NewGreedy() })
	r.Register("regret-greedy", func(int64) Assigner { return NewRegretGreedy() })
	r.Register("local-search", func(seed int64) Assigner { return NewLocalSearch(seed) })
	r.Register("tabu", func(seed int64) Assigner { return NewTabuSearch(seed) })
	r.Register("lns", func(seed int64) Assigner { return NewLNS(seed) })
	r.Register("lagrangian", func(seed int64) Assigner { return NewLagrangian(seed) })
	r.Register("lp-rounding", func(seed int64) Assigner { return NewLPRounding(seed) })
	r.Register("bandit", func(seed int64) Assigner { return NewBandit(seed) })
	r.Register("sarsa", func(seed int64) Assigner { return NewSARSA(seed) })
	r.Register("expected-sarsa", func(seed int64) Assigner { return NewExpectedSARSA(seed) })
	r.Register("double-qlearning", func(seed int64) Assigner { return NewDoubleQLearning(seed) })
	r.Register("nstep-qlearning", func(seed int64) Assigner { return NewNStepQLearning(seed) })
	r.Register("qlearning", func(seed int64) Assigner { return NewQLearning(seed) })
	r.Register("minmax", func(seed int64) Assigner { return NewMinMax(seed) })
	return r
}

// Register appends a factory under name, replacing any existing entry with
// the same name.
func (r *Registry) Register(name string, f Factory) {
	for i, e := range r.entries {
		if e.name == name {
			r.entries[i].factory = f
			return
		}
	}
	r.entries = append(r.entries, registryEntry{name: name, factory: f})
}

// Names returns the registered algorithm names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.name
	}
	return out
}

// New builds the named assigner with the given seed.
func (r *Registry) New(name string, seed int64) (Assigner, error) {
	for _, e := range r.entries {
		if e.name == name {
			return e.factory(seed), nil
		}
	}
	return nil, fmt.Errorf("assign: unknown algorithm %q (have %v)", name, r.Names())
}
