package assign

import (
	"errors"
	"math"
	"testing"

	"taccc/internal/gap"
)

func TestMinMaxReducesMaxDelay(t *testing.T) {
	worse := 0
	for seed := int64(0); seed < 8; seed++ {
		in := mustSynthetic(t, gap.SyntheticUniform, 25, 5, 0.8, seed)
		g, gerr := NewGreedy().Assign(in)
		m, merr := NewMinMax(seed).Assign(in)
		if gerr != nil || merr != nil {
			continue
		}
		if in.MaxCost(m) > in.MaxCost(g)+1e-9 {
			worse++
		}
	}
	if worse > 1 {
		t.Fatalf("minmax had worse max delay than greedy on %d/8 seeds", worse)
	}
}

func TestMinMaxFeasibleAndValid(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := mustSynthetic(t, gap.SyntheticCorrelated, 20, 4, 0.8, seed)
		a, err := NewMinMax(seed).Assign(in)
		if err != nil {
			if errors.Is(err, gap.ErrInfeasible) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !in.Feasible(a) {
			t.Fatalf("seed %d: infeasible", seed)
		}
	}
}

func TestMinMaxOptimalOnCraftedInstance(t *testing.T) {
	// Two devices, two edges. Total-delay optimum puts both at max 9;
	// min-max optimum caps the max at 5.
	in, err := gap.NewInstance(
		[][]float64{
			{1, 5},
			{9, 4},
		},
		[][]float64{{3, 3}, {3, 3}},
		[]float64{3, 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity forces one device per edge: options are (0,1): max 4...
	// costs: dev0->e0=1, dev1->e1=4 (max 4) or dev0->e1=5, dev1->e0=9
	// (max 9). Min-max must pick the first.
	a, err := NewMinMax(1).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.MaxCost(a); got != 4 {
		t.Fatalf("max delay = %v, want 4", got)
	}
}

func TestMinMaxInfeasible(t *testing.T) {
	in := infeasibleInstance(t)
	if _, err := NewMinMax(1).Assign(in); !errors.Is(err, gap.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestMinMaxRegistered(t *testing.T) {
	reg := NewRegistry()
	a, err := reg.New("minmax", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "minmax" {
		t.Fatalf("Name = %q", a.Name())
	}
}

func TestWithDeadlines(t *testing.T) {
	in := mustSynthetic(t, gap.SyntheticUniform, 10, 3, 0.6, 2)
	// Tight budget on device 0: only its cheapest cells survive.
	budgets := make([]float64, 10)
	minC := math.Inf(1)
	for j := 0; j < 3; j++ {
		if c := in.CostAt(0, j); c < minC {
			minC = c
		}
	}
	budgets[0] = minC // only the single cheapest edge remains
	masked, err := gap.WithDeadlines(in, budgets)
	if err != nil {
		t.Fatal(err)
	}
	reachable := 0
	for j := 0; j < 3; j++ {
		if !math.IsInf(masked.CostAt(0, j), 1) {
			reachable++
		}
	}
	if reachable != 1 {
		t.Fatalf("device 0 has %d reachable cells, want 1", reachable)
	}
	a, err := NewGreedy().Assign(masked)
	if err != nil {
		t.Fatal(err)
	}
	v, err := gap.DeadlineViolations(in, a, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("masked solve still violates %d deadlines", v)
	}
	// Unmasked greedy may or may not violate; the counter must at least
	// run and agree with manual counting.
	g, err := NewGreedy().Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i, j := range g.Of {
		if budgets[i] > 0 && in.CostAt(i, j) > budgets[i] {
			want++
		}
	}
	got, err := gap.DeadlineViolations(in, g, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("violations = %d, want %d", got, want)
	}
}

func TestWithDeadlinesValidation(t *testing.T) {
	in := mustSynthetic(t, gap.SyntheticUniform, 5, 2, 0.6, 1)
	if _, err := gap.WithDeadlines(in, []float64{1}); err == nil {
		t.Error("short budget slice accepted")
	}
	a, err := NewGreedy().Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gap.DeadlineViolations(in, a, []float64{1}); err == nil {
		t.Error("short budget slice accepted by violations")
	}
	if _, err := gap.DeadlineViolations(in, &gap.Assignment{Of: []int{0}}, make([]float64, 5)); err == nil {
		t.Error("short assignment accepted by violations")
	}
}
