package gap

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// nestedRowMinBound and nestedLagrangianBound are the sequential bounds,
// reading one cell at a time through CostAt and WeightAt, that the
// row-wise parallel ones replaced, kept as the reference they must match
// bit for bit.
func nestedRowMinBound(in *Instance) float64 {
	total := 0.0
	for i := 0; i < in.N(); i++ {
		min := math.Inf(1)
		for j := 0; j < in.M(); j++ {
			if c := in.CostAt(i, j); c < min {
				min = c
			}
		}
		total += min
	}
	return total
}

func nestedLagrangianBound(in *Instance, iters int) (float64, []float64) {
	n, m := in.N(), in.M()
	lambda := make([]float64, m)
	best := make([]float64, m)
	bestVal := math.Inf(-1)
	demand := make([]float64, m)
	for it := 0; it < iters; it++ {
		for j := range demand {
			demand[j] = 0
		}
		val := 0.0
		for i := 0; i < n; i++ {
			minV, minJ := math.Inf(1), -1
			for j := 0; j < m; j++ {
				v := in.CostAt(i, j) + lambda[j]*in.WeightAt(i, j)
				if v < minV {
					minV, minJ = v, j
				}
			}
			if minJ >= 0 && !math.IsInf(minV, 1) {
				val += minV
				demand[minJ] += in.WeightAt(i, minJ)
			} else {
				return math.Inf(1), lambda
			}
		}
		for j := 0; j < m; j++ {
			val -= lambda[j] * in.Capacity[j]
		}
		if val > bestVal {
			bestVal = val
			copy(best, lambda)
		}
		step := 1.0 / float64(it+1)
		norm := 0.0
		for j := 0; j < m; j++ {
			g := demand[j] - in.Capacity[j]
			norm += g * g
		}
		if norm == 0 {
			break
		}
		scale := step / math.Sqrt(norm)
		for j := 0; j < m; j++ {
			lambda[j] += scale * (demand[j] - in.Capacity[j])
			if lambda[j] < 0 {
				lambda[j] = 0
			}
		}
	}
	return bestVal, best
}

// withInfCells returns a copy of in, built through NewInstance, in which
// the listed cells are +Inf; a row listed in full is unreachable from
// every edge.
func withInfCells(t *testing.T, in *Instance, cells [][2]int) *Instance {
	t.Helper()
	cost := make([][]float64, in.N())
	weight := make([][]float64, in.N())
	for i := range cost {
		cost[i], weight[i] = append([]float64(nil), in.CostRow(i)...), in.WeightRow(i)
	}
	for _, c := range cells {
		cost[c[0]][c[1]] = math.Inf(1)
	}
	out, err := NewInstance(cost, weight, in.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func infRow(i, m int) [][2]int {
	var cells [][2]int
	for j := 0; j < m; j++ {
		cells = append(cells, [2]int{i, j})
	}
	return cells
}

// TestFlatBoundsMatchNested pins RowMinBound and LagrangianBound, at 1 and
// 8 workers, to the nested sequential reference: the bound value and
// every multiplier must keep their bits. The table covers both synthetic
// families from loose to over-tight capacity, scattered +Inf cells, rows
// with only +Inf entries (first, middle and last).
func TestFlatBoundsMatchNested(t *testing.T) {
	cases := map[string]*Instance{}
	for _, kind := range []SyntheticKind{SyntheticUniform, SyntheticCorrelated} {
		for _, shape := range []struct {
			n, m int
			rho  float64
		}{{1, 1, 1}, {7, 3, 0.5}, {60, 8, 0.9}, {300, 12, 1}, {97, 31, 0.8}} {
			in, err := Synthetic(kind, shape.n, shape.m, shape.rho, int64(shape.n+shape.m))
			if err != nil {
				t.Fatal(err)
			}
			cases[fmt.Sprintf("kind%d-%dx%d-rho%v", kind, shape.n, shape.m, shape.rho)] = in
		}
	}
	base, err := Synthetic(SyntheticUniform, 40, 6, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases["scattered-inf"] = withInfCells(t, base, [][2]int{{0, 0}, {3, 5}, {3, 4}, {17, 2}, {39, 0}})
	cases["inf-row-first"] = withInfCells(t, base, infRow(0, 6))
	cases["inf-row-middle"] = withInfCells(t, base, infRow(21, 6))
	cases["inf-row-last"] = withInfCells(t, base, infRow(39, 6))

	for name, in := range cases {
		wantRow := nestedRowMinBound(in)
		for _, workers := range []int{1, 8} {
			if got := rowMinBound(in, workers); math.Float64bits(got) != math.Float64bits(wantRow) {
				t.Errorf("%s: RowMinBound at %d workers = %v, nested %v", name, workers, got, wantRow)
			}
			for _, iters := range []int{0, 1, 5, 50} {
				wantV, wantL := nestedLagrangianBound(in, iters)
				gotV, gotL := lagrangianBound(in, iters, workers)
				if strings.HasPrefix(name, "inf-row") && iters > 0 && !math.IsInf(wantV, 1) {
					t.Fatalf("%s: nested bound %v, want +Inf for a row with no finite cost", name, wantV)
				}
				if len(gotL) != len(wantL) {
					t.Fatalf("%s: %d multipliers, nested %d", name, len(gotL), len(wantL))
				}
				if math.Float64bits(gotV) != math.Float64bits(wantV) {
					t.Errorf("%s: LagrangianBound(%d) at %d workers = %v, nested %v", name, iters, workers, gotV, wantV)
				}
				for j := range wantL {
					if math.Float64bits(gotL[j]) != math.Float64bits(wantL[j]) {
						t.Errorf("%s: LagrangianBound(%d) at %d workers: multiplier %d = %v, nested %v",
							name, iters, workers, j, gotL[j], wantL[j])
						break
					}
				}
			}
		}
	}
}
