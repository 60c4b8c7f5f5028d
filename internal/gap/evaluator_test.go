package gap

import (
	"math"
	"testing"

	"taccc/internal/xrand"
)

// evalFixtures returns the instances the evaluator tests sweep: the tiny
// hand-built case plus synthetic instances across both families, several
// shapes and seeds.
func evalFixtures(t testing.TB) []*Instance {
	t.Helper()
	out := []*Instance{tiny(t)}
	shapes := []struct {
		kind SyntheticKind
		n, m int
		rho  float64
	}{
		{SyntheticUniform, 12, 3, 0.7},
		{SyntheticUniform, 30, 5, 0.85},
		{SyntheticCorrelated, 20, 4, 0.8},
		{SyntheticCorrelated, 40, 6, 0.9},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			in, err := Synthetic(sh.kind, sh.n, sh.m, sh.rho, seed)
			if err != nil {
				t.Fatalf("synthetic(%v,%d,%d): %v", sh.kind, sh.n, sh.m, err)
			}
			out = append(out, in)
		}
	}
	return out
}

// cheapestOf places every device on its cheapest finite edge, ignoring
// capacity — a valid placement for pricing tests even when overloaded.
func cheapestOf(in *Instance) []int {
	of := make([]int, in.N())
	for i := range of {
		best, bestC := -1, math.Inf(1)
		for j := 0; j < in.M(); j++ {
			if c := in.CostAt(i, j); c < bestC {
				best, bestC = j, c
			}
		}
		of[i] = best
	}
	return of
}

func TestEvaluatorDeltaMoveMatchesFullRecost(t *testing.T) {
	for _, in := range evalFixtures(t) {
		of := cheapestOf(in)
		ev := NewEvaluator(in)
		ev.Reset(of)
		base := in.CostOf(of)
		for i := 0; i < in.N(); i++ {
			for to := 0; to < in.M(); to++ {
				if math.IsInf(in.CostAt(i, to), 1) {
					continue
				}
				moved := append([]int(nil), of...)
				moved[i] = to
				want := in.CostOf(moved) - base
				if got := ev.DeltaMove(i, to); math.Abs(got-want) > 1e-12 {
					t.Fatalf("DeltaMove(%d,%d) = %v, full re-cost difference %v", i, to, got, want)
				}
			}
		}
	}
}

func TestEvaluatorDeltaSwapMatchesFullRecost(t *testing.T) {
	for _, in := range evalFixtures(t) {
		of := cheapestOf(in)
		ev := NewEvaluator(in)
		ev.Reset(of)
		base := in.CostOf(of)
		n := in.N()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if math.IsInf(in.CostAt(a, of[b]), 1) || math.IsInf(in.CostAt(b, of[a]), 1) {
					continue
				}
				swapped := append([]int(nil), of...)
				swapped[a], swapped[b] = swapped[b], swapped[a]
				want := in.CostOf(swapped) - base
				if got := ev.DeltaSwap(a, b); math.Abs(got-want) > 1e-12 {
					t.Fatalf("DeltaSwap(%d,%d) = %v, full re-cost difference %v", a, b, got, want)
				}
			}
		}
	}
}

// checkEvaluatorState compares the Evaluator's running total and live
// residuals against a from-scratch recomputation over the placement it
// reports.
func checkEvaluatorState(t *testing.T, in *Instance, ev *Evaluator) {
	t.Helper()
	of := ev.Placement()
	if want, got := in.CostOf(of), ev.Total(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Total() = %v, CostOf = %v (drift %g)", got, want, got-want)
	}
	residual := append([]float64(nil), in.Capacity...)
	for i, j := range of {
		if j >= 0 {
			residual[j] -= in.WeightAt(i, j)
		}
	}
	for j, got := range ev.Residuals() {
		if math.Abs(got-residual[j]) > 1e-9 {
			t.Fatalf("Residuals()[%d] = %v, recomputed %v", j, got, residual[j])
		}
	}
}

// FuzzEvaluatorOps decodes an operation sequence three bytes at a time —
// an opcode and two operands — and applies each operation the Evaluator
// accepts to one of the evaluator fixtures, starting from its cheapest
// placement: a move of a placed device to a reachable edge, a swap of two
// placed devices on different edges whose exchanged cells are reachable,
// or an unassign of a placed device (a place of an unplaced one onto a
// reachable edge). After every step it checks the total and residuals
// against a full recomputation. This is the differential
// test backing the incremental-evaluation contract; the seed corpus holds
// 200 operations drawn from seeds 10, 11 and 12 for every fixture, so
// plain `go test` (and `go test -race`) runs them.
func FuzzEvaluatorOps(f *testing.F) {
	fixtures := evalFixtures(f)
	for k := range fixtures {
		for seed := int64(10); seed < 13; seed++ {
			src := xrand.New(seed)
			ops := make([]byte, 3*200)
			for b := range ops {
				ops[b] = byte(src.Intn(256))
			}
			f.Add(uint8(k), ops)
		}
	}
	f.Fuzz(func(t *testing.T, fixture uint8, ops []byte) {
		in := fixtures[int(fixture)%len(fixtures)]
		ev := NewEvaluator(in)
		ev.Reset(cheapestOf(in))
		of := ev.Placement()
		n, m := in.N(), in.M()
		for k := 0; k+2 < len(ops); k += 3 {
			x, y := int(ops[k+1]), int(ops[k+2])
			switch ops[k] % 3 {
			case 0: // move
				i, to := x%n, y%m
				if of[i] >= 0 && !math.IsInf(in.CostAt(i, to), 1) {
					ev.Move(i, to)
				}
			case 1: // swap
				// Swap requires distinct edges (same-edge pairs are
				// no-ops every solver skips before pricing).
				a, b := x%n, y%n
				if a != b && of[a] >= 0 && of[b] >= 0 && of[a] != of[b] &&
					!math.IsInf(in.CostAt(a, of[b]), 1) && !math.IsInf(in.CostAt(b, of[a]), 1) {
					ev.Swap(a, b)
				}
			case 2: // unassign / place
				i := x % n
				if of[i] >= 0 {
					ev.Unassign(i)
				} else if to := y % m; !math.IsInf(in.CostAt(i, to), 1) {
					ev.Place(i, to)
				}
			}
			checkEvaluatorState(t, in, ev)
		}
	})
}

// TestEvaluatorSteadyStateAllocs pins the allocation-free contract of the
// hot-path operations: once constructed, Reset and Move/Swap/Unassign/
// Place cycles must not allocate.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	in := tiny(t)
	ev := NewEvaluator(in)
	of := []int{0, 1, 0}
	allocs := testing.AllocsPerRun(100, func() {
		ev.Reset(of)
		ev.Move(0, 1)
		ev.Swap(1, 2)
		ev.Unassign(0)
		ev.Place(0, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset/Move/Swap/Unassign/Place allocates %.1f/op", allocs)
	}
}

// TestDegenerateCostStats is the table test for the cost accessors on
// degenerate inputs: a deviceless instance and an empty assignment must
// report zeros (never NaN from the 0/0 mean).
func TestDegenerateCostStats(t *testing.T) {
	empty := &Instance{}
	tinyIn := tiny(t)
	full, err := NewAssignment(tinyIn, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name             string
		in               *Instance
		a                *Assignment
		total, max, mean float64
	}{
		{"empty instance, empty assignment", empty, &Assignment{}, 0, 0, 0},
		{"tiny instance, empty placement", tinyIn, &Assignment{}, 0, 0, 0},
		{"tiny instance, full placement", tinyIn, full, 1 + 6 + 3, 6, 10.0 / 3},
	}
	for _, tc := range cases {
		if got := tc.in.TotalCost(tc.a); got != tc.total {
			t.Errorf("%s: TotalCost = %v, want %v", tc.name, got, tc.total)
		}
		if got := tc.in.MaxCost(tc.a); got != tc.max {
			t.Errorf("%s: MaxCost = %v, want %v", tc.name, got, tc.max)
		}
		got := tc.in.MeanCost(tc.a)
		if math.IsNaN(got) {
			t.Errorf("%s: MeanCost is NaN", tc.name)
		}
		if math.Abs(got-tc.mean) > 1e-12 {
			t.Errorf("%s: MeanCost = %v, want %v", tc.name, got, tc.mean)
		}
	}
}
