package assign

import (
	"errors"
	"testing"

	"taccc/internal/gap"
)

func TestPortfolioDominatesMembers(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := mustSynthetic(t, gap.SyntheticCorrelated, 20, 4, 0.85, seed)
		members := []Assigner{
			NewRegretGreedy(), NewLocalSearch(seed), NewLagrangian(seed), NewQLearning(seed),
		}
		p := NewPortfolio(seed, members...)
		got, err := p.Assign(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		best := in.TotalCost(got)
		for _, m := range members {
			mg, err := m.Assign(in)
			if err != nil {
				continue
			}
			if best > in.TotalCost(mg)+1e-9 {
				t.Fatalf("seed %d: portfolio (%v) worse than member %s (%v)",
					seed, best, m.Name(), in.TotalCost(mg))
			}
		}
	}
}

func TestPortfolioParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		in := mustSynthetic(t, gap.SyntheticUniform, 20, 4, 0.8, seed)
		seq := NewPortfolio(seed)
		par := NewPortfolio(seed)
		par.Parallel = true
		a, aerr := seq.Assign(in)
		b, berr := par.Assign(in)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("seed %d: error mismatch: %v vs %v", seed, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		if in.TotalCost(a) != in.TotalCost(b) {
			t.Fatalf("seed %d: parallel cost %v != sequential %v",
				seed, in.TotalCost(b), in.TotalCost(a))
		}
	}
}

func TestNewParallelPortfolioMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		in := mustSynthetic(t, gap.SyntheticCorrelated, 24, 4, 0.85, seed)
		p := NewParallelPortfolio(seed)
		if !p.Parallel {
			t.Fatal("NewParallelPortfolio did not enable the concurrent path")
		}
		got, err := p.Assign(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := NewPortfolio(seed).Assign(in)
		if err != nil {
			t.Fatalf("seed %d: sequential twin failed: %v", seed, err)
		}
		if in.TotalCost(got) != in.TotalCost(want) {
			t.Fatalf("seed %d: parallel cost %v != sequential %v",
				seed, in.TotalCost(got), in.TotalCost(want))
		}
	}
}

// TestRegistryPortfolioIsParallel pins the registry's "portfolio" entry to
// the concurrent configuration so the parallel path is reachable from every
// public surface (facade, tacsolve, experiments).
func TestRegistryPortfolioIsParallel(t *testing.T) {
	a, err := NewRegistry().New("portfolio", 1)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := a.(*Portfolio)
	if !ok {
		t.Fatalf("registry portfolio is %T", a)
	}
	if !p.Parallel {
		t.Fatal("registry portfolio is sequential; parallel path is dead code again")
	}
	in := mustSynthetic(t, gap.SyntheticUniform, 20, 4, 0.8, 2)
	got, err := p.Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Feasible(got) {
		t.Fatal("infeasible result")
	}
}

func TestPortfolioAllInfeasible(t *testing.T) {
	in := infeasibleInstance(t)
	if _, err := NewPortfolio(1).Assign(in); !errors.Is(err, gap.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestPortfolioDefaultMembers(t *testing.T) {
	in := mustSynthetic(t, gap.SyntheticUniform, 15, 3, 0.7, 1)
	got, err := NewPortfolio(1).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Feasible(got) {
		t.Fatal("infeasible result")
	}
}

// rlParams returns the RLParams of a Q-table assigner.
func rlParams(t *testing.T, a Assigner) *RLParams {
	t.Helper()
	switch a := a.(type) {
	case *QLearning:
		return &a.Params
	case *SARSA:
		return &a.Params
	case *ExpectedSARSA:
		return &a.Params
	case *DoubleQLearning:
		return &a.Params
	case *NStepQLearning:
		return &a.Params
	}
	t.Fatalf("%s has no RLParams", a.Name())
	return nil
}

// TestQLearningAblationSwitches requires every Q-table assigner to honour
// every RLParams ablation switch: each switch set alone changes the
// assignment on a fixed instance, and every ablated run stays feasible.
// NoCostSeeding and UniformExploration are compared with warm start off,
// since a winning regret-greedy warm start would hide what training
// learned.
func TestQLearningAblationSwitches(t *testing.T) {
	in := mustSynthetic(t, gap.SyntheticCorrelated, 20, 4, 0.85, 4)
	reg := NewRegistry()
	for _, name := range []string{"qlearning", "sarsa", "expected-sarsa", "double-qlearning", "nstep-qlearning"} {
		solve := func(mut func(*RLParams)) string {
			a, err := reg.New(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			mut(rlParams(t, a))
			got, err := a.Assign(in)
			if err != nil {
				t.Fatalf("%s: ablated variant failed: %v", name, err)
			}
			if !in.Feasible(got) {
				t.Fatalf("%s: ablated variant produced infeasible result", name)
			}
			return hashOf(got.Of)
		}
		noWarm := func(p *RLParams) { p.NoWarmStart = true }
		for _, c := range []struct {
			name      string
			base, mut func(*RLParams)
		}{
			{"NoWarmStart", func(*RLParams) {}, noWarm},
			{"NoCostSeeding", noWarm, func(p *RLParams) { p.NoWarmStart = true; p.NoCostSeeding = true }},
			{"UniformExploration", noWarm, func(p *RLParams) { p.NoWarmStart = true; p.UniformExploration = true }},
		} {
			if solve(c.base) == solve(c.mut) {
				t.Errorf("%s ignores %s: same assignment with it on and off", name, c.name)
			}
		}
		solve(func(p *RLParams) { p.NoCostSeeding = true; p.NoWarmStart = true; p.UniformExploration = true })
	}
}
