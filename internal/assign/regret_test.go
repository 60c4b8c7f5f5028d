package assign

import (
	"fmt"
	"math"
	"testing"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// regretGreedyReference is the quadratic regret-greedy loop: every round
// rescans every unassigned device over every edge. RegretGreedy's cached
// rescan must reproduce it exactly, errors included.
func regretGreedyReference(in *gap.Instance) (*gap.Assignment, error) {
	n := in.N()
	of := make([]int, n)
	assigned := make([]bool, n)
	residual := residuals(in)
	for placed := 0; placed < n; placed++ {
		bestDev, bestEdge := -1, -1
		bestRegret := math.Inf(-1)
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			first, second, firstJ := math.Inf(1), math.Inf(1), -1
			for j, c := range in.CostRow(i) {
				if !fits(in, residual, i, j) {
					continue
				}
				switch {
				case c < first:
					second, first, firstJ = first, c, j
				case c < second:
					second = c
				}
			}
			if firstJ < 0 {
				return nil, fmt.Errorf("assign/regret-greedy: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
			}
			regret := second - first
			if math.IsInf(second, 1) {
				regret = math.Inf(1)
			}
			if regret > bestRegret {
				bestRegret, bestDev, bestEdge = regret, i, firstJ
			}
		}
		of[bestDev] = bestEdge
		assigned[bestDev] = true
		residual[bestEdge] -= in.WeightAt(bestDev, bestEdge)
	}
	return finish(in, of, "regret-greedy")
}

// regretCase builds one reference-comparison instance: a synthetic
// instance at tightness rho (above 1 by shrinking the rho = 1 capacities),
// optionally with costs rounded to whole milliseconds (tie-heavy) and a
// few unreachable (+Inf) pairs.
func regretCase(kind gap.SyntheticKind, n, m int, rho float64, round, unreachable bool, seed int64) (*gap.Instance, error) {
	in, err := gap.Synthetic(kind, n, m, math.Min(rho, 1), seed)
	if err == nil && round {
		in, err = roundedCosts(in)
	}
	if err != nil {
		return nil, err
	}
	src := xrand.New(seed)
	cost, weight := matrices(in)
	for _, row := range cost {
		for j := range row {
			if unreachable && src.Bernoulli(0.05) {
				row[j] = math.Inf(1)
			}
		}
	}
	capacity := append([]float64(nil), in.Capacity...)
	for j := range capacity {
		capacity[j] /= math.Max(rho, 1)
	}
	return gap.NewInstance(cost, weight, capacity)
}

// TestRegretGreedyMatchesReference compares the cached rescan with the
// quadratic reference on uniform and correlated instances across
// tightness (including over-full ρ > 1), tie-heavy rounded costs and
// unreachable pairs: the same placement when feasible, the same error
// text (and so the same device index) when not.
func TestRegretGreedyMatchesReference(t *testing.T) {
	var feasible, infeasible int
	seed := int64(0)
	for _, kind := range []gap.SyntheticKind{gap.SyntheticUniform, gap.SyntheticCorrelated} {
		for _, rho := range []float64{0.6, 0.75, 0.85, 0.95, 1.0, 1.05} {
			for _, round := range []bool{false, true} {
				for rep := 0; rep < 20; rep++ {
					seed++
					n, m := 10+int(seed*37%110), 2+int(seed*13%11)
					in, err := regretCase(kind, n, m, rho, round, rep%4 == 3, seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := NewRegretGreedy().Assign(in)
					want, wantErr := regretGreedyReference(in)
					name := fmt.Sprintf("kind %v n=%d m=%d rho=%v round=%v seed %d", kind, n, m, rho, round, seed)
					switch {
					case wantErr != nil:
						infeasible++
						if err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
						}
					case err != nil:
						t.Fatalf("%s: %v, reference found %s", name, err, hashOf(want.Of))
					default:
						feasible++
						if hashOf(got.Of) != hashOf(want.Of) {
							t.Fatalf("%s: placement %v, reference %v", name, got.Of, want.Of)
						}
					}
				}
			}
		}
	}
	if feasible < 100 || infeasible < 100 {
		t.Fatalf("sweep too one-sided: %d feasible, %d infeasible instances", feasible, infeasible)
	}
	t.Logf("%d feasible and %d infeasible instances match", feasible, infeasible)
}
