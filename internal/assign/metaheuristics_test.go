package assign

import (
	"errors"
	"reflect"
	"testing"

	"taccc/internal/gap"
)

// Focused tests for the metaheuristics and RL variants beyond the shared
// contract tests in assign_test.go.

func TestTabuNeverWorseThanStart(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := mustSynthetic(t, gap.SyntheticCorrelated, 25, 5, 0.85, seed)
		start, err := startFeasible(in, seed)
		if err != nil {
			continue
		}
		got, err := NewTabuSearch(seed).Assign(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if in.TotalCost(got) > in.TotalCost(start)+1e-9 {
			t.Fatalf("seed %d: tabu (%v) worse than start (%v)",
				seed, in.TotalCost(got), in.TotalCost(start))
		}
	}
}

func TestTabuEscapesLocalOptimum(t *testing.T) {
	// A crafted instance where hill climbing from greedy is stuck but a
	// worsening move unlocks a better packing:
	// device 0 sits on edge 0 (cost 1); moving it to edge 1 (cost 2)
	// frees capacity for device 1 to move from edge 1 (cost 10) to edge
	// 0 (cost 1): total 12 -> 3. A shift-only hill climb can do this
	// too via the swap move, so block the swap by unequal weights.
	in, err := gap.NewInstance(
		[][]float64{
			{1, 2},  // device 0, weight 2
			{10, 1}, // device 1 (cost 1 on edge *0*? see below)
		},
		[][]float64{{2, 2}, {3, 3}},
		[]float64{3, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The proven branch-and-bound optimum as the oracle.
	opt, err := gap.BranchAndBound(in)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Proven {
		t.Fatal("branch-and-bound did not prove the optimum")
	}
	got, err := NewTabuSearch(1).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if in.TotalCost(got) > opt.Cost+1e-9 {
		t.Fatalf("tabu %v, optimum %v", in.TotalCost(got), opt.Cost)
	}
}

func TestLNSNeverWorseThanStart(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := mustSynthetic(t, gap.SyntheticUniform, 30, 5, 0.8, seed)
		start, err := startFeasible(in, seed)
		if err != nil {
			continue
		}
		got, err := NewLNS(seed).Assign(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if in.TotalCost(got) > in.TotalCost(start)+1e-9 {
			t.Fatalf("seed %d: LNS (%v) worse than start (%v)",
				seed, in.TotalCost(got), in.TotalCost(start))
		}
	}
}

func TestLNSDeterministic(t *testing.T) {
	// Regression: regretReinsert used to pick the max-regret device by
	// iterating a map, so regret ties broke in random map order and LNS
	// returned different assignments run-to-run for the same seed.
	for seed := int64(0); seed < 6; seed++ {
		in := mustSynthetic(t, gap.SyntheticUniform, 40, 5, 0.85, seed)
		first, err := NewLNS(seed).Assign(in)
		if err != nil {
			continue
		}
		for run := 0; run < 3; run++ {
			again, err := NewLNS(seed).Assign(in)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, run, err)
			}
			if !reflect.DeepEqual(first.Of, again.Of) {
				t.Fatalf("seed %d run %d: LNS not deterministic:\n%v\n%v",
					seed, run, first.Of, again.Of)
			}
		}
	}
}

func TestRLVariantsNeverWorseThanWarmStart(t *testing.T) {
	// All RL assigners are seeded with the regret-greedy warm start, so
	// they can never return anything worse.
	for seed := int64(0); seed < 5; seed++ {
		in := mustSynthetic(t, gap.SyntheticCorrelated, 20, 4, 0.85, seed)
		warm, err := NewRegretGreedy().Assign(in)
		if err != nil {
			continue
		}
		warmCost := in.TotalCost(warm)
		for _, a := range []Assigner{
			NewQLearning(seed), NewSARSA(seed),
			NewExpectedSARSA(seed), NewDoubleQLearning(seed),
		} {
			got, err := a.Assign(in)
			if err != nil {
				t.Fatalf("%s seed %d: %v", a.Name(), seed, err)
			}
			if in.TotalCost(got) > warmCost+1e-9 {
				t.Fatalf("%s seed %d: %v worse than warm start %v",
					a.Name(), seed, in.TotalCost(got), warmCost)
			}
		}
	}
}

func TestRLVariantsInfeasible(t *testing.T) {
	in := infeasibleInstance(t)
	for _, a := range []Assigner{
		NewExpectedSARSA(1), NewDoubleQLearning(1), NewTabuSearch(1), NewLNS(1),
	} {
		if _, err := a.Assign(in); !errors.Is(err, gap.ErrInfeasible) {
			t.Errorf("%s: want ErrInfeasible, got %v", a.Name(), err)
		}
	}
}

func TestExpectedValue(t *testing.T) {
	row := []float64{-5, -1, -3}
	feasible := []int{0, 1, 2}
	// eps=0: pure max = -1.
	if got := expectedValue(row, feasible, 0); got != -1 {
		t.Fatalf("expectedValue(eps=0) = %v, want -1", got)
	}
	// eps=1: uniform mean = -3.
	if got := expectedValue(row, feasible, 1); got != -3 {
		t.Fatalf("expectedValue(eps=1) = %v, want -3", got)
	}
	// Masked action not counted.
	if got := expectedValue(row, []int{1, 2}, 1); got != -2 {
		t.Fatalf("expectedValue masked = %v, want -2", got)
	}
}
