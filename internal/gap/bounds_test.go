package gap

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"taccc/internal/topology"
	"taccc/internal/workload"
)

// nestedRowMinBound, nestedLagrangianBound and nestedLowerBound are the
// sequential bounds, reading one cell at a time through CostAt and
// WeightAt, kept as the reference that the candidate-table bounds must
// match bit for bit.
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

func nestedLowerBound(in *Instance) float64 {
	rb := nestedRowMinBound(in)
	lb, _ := nestedLagrangianBound(in, 50)
	if lb > rb {
		return lb
	}
	return rb
}

// nestedArgmin prices row i with a strict-< scan over every edge.
func nestedArgmin(in *Instance, i int, lambda []float64) (float64, int) {
	minV, minJ := math.Inf(1), -1
	for j := 0; j < in.M(); j++ {
		if v := in.CostAt(i, j) + lambda[j]*in.WeightAt(i, j); v < minV {
			minV, minJ = v, j
		}
	}
	return minV, minJ
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
			minV, minJ := nestedArgmin(in, i, lambda)
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
		cost[i], weight[i] = append([]float64(nil), in.CostRow(i)...), weightRow(in, i)
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

// topologyInstance builds an n×m instance over a generated topology of
// the given family, with uniform capacities at rho.
func topologyInstance(t testing.TB, fam topology.Family, n, m int, rho float64, seed int64) *Instance {
	t.Helper()
	g, err := topology.Generate(fam, topology.Config{NumIoT: n, NumEdge: m, NumGateways: 2 * m, NumRouters: m, Seed: seed}, topology.PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	dm := topology.NewDelayMatrix(g, topology.LatencyCost)
	devs, err := workload.Generate(n, workload.DefaultProfile(seed))
	if err != nil {
		t.Fatal(err)
	}
	caps, err := UniformCapacities(m, workload.TotalLoad(devs), rho)
	if err != nil {
		t.Fatal(err)
	}
	in, err := FromTopology(dm, devs, caps)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// matrixInstance builds an n×m instance with cost(i, j), weight 1+(i+j)%3
// and the given capacity on every edge.
func matrixInstance(t testing.TB, n, m int, capacity float64, cost func(i, j int) float64) *Instance {
	t.Helper()
	c, w, caps := make([][]float64, n), make([][]float64, n), make([]float64, m)
	for i := range c {
		c[i], w[i] = make([]float64, m), make([]float64, m)
		for j := range c[i] {
			c[i][j], w[i][j] = cost(i, j), float64(1+(i+j)%3)
		}
	}
	for j := range caps {
		caps[j] = capacity
	}
	in, err := NewInstance(c, w, caps)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// checkBoundsMatchNested requires the row-min bound, the Lagrangian
// bound at 0, 1, 5 and 50 rounds (value and every multiplier) and
// LowerBound, each built on 1 and on 8 workers, to have the bits of the
// nested reference.
func checkBoundsMatchNested(t *testing.T, name string, in *Instance) {
	t.Helper()
	wantRow, wantLower := nestedRowMinBound(in), nestedLowerBound(in)
	for _, workers := range []int{1, 8} {
		table := NewCandidates(in, workers)
		if got := table.rowMinBound(); math.Float64bits(got) != math.Float64bits(wantRow) {
			t.Errorf("%s: row-min bound at %d workers = %v, nested %v", name, workers, got, wantRow)
		}
		if got := lowerBound(in, workers); math.Float64bits(got) != math.Float64bits(wantLower) {
			t.Errorf("%s: LowerBound at %d workers = %v, nested %v", name, workers, got, wantLower)
		}
		for _, iters := range []int{0, 1, 5, 50} {
			wantV, wantL := nestedLagrangianBound(in, iters)
			gotV, gotL := table.lagrangianBound(iters, workers)
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

// TestFlatBoundsMatchNested pins the candidate-table bounds, at 1 and 8
// workers, to the nested sequential reference: the bound value and every
// multiplier must keep their bits. The table covers both synthetic
// families from loose to over-tight capacity, scattered +Inf cells, rows
// with only +Inf entries (first, middle and last), the eight topology
// families at m > 8 (where most rows have tied costs, so the table's
// tie-break and fence are exercised), and degenerate shapes: m = 1,
// every capacity zero, all-equal costs and a stranded row at m > 8. No
// bound may be NaN, and a stranded row makes every bound +Inf.
func TestFlatBoundsMatchNested(t *testing.T) {
	cases := map[string]*Instance{}
	for _, kind := range []SyntheticKind{SyntheticUniform, SyntheticCorrelated} {
		for _, shape := range []struct {
			n, m int
			rho  float64
		}{{1, 1, 1}, {7, 3, 0.5}, {60, 8, 0.9}, {300, 12, 1}, {97, 31, 0.8}, {20, 1, 0.9}} {
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
	for _, fam := range topology.Families() {
		cases["topology-"+string(fam)+"-400x24"] = topologyInstance(t, fam, 400, 24, 0.9, 5)
	}
	ramp := func(i, j int) float64 { return float64((i*7 + j*3) % 11) }
	cases["all-capacity-zero"] = matrixInstance(t, 30, 12, 0, ramp)
	cases["all-equal-cost"] = matrixInstance(t, 30, 12, 15, func(i, j int) float64 { return 4 })
	cases["fence-ties-kth"] = matrixInstance(t, 30, 12, 12, func(i, j int) float64 {
		if j < candidateK+1 {
			return 2
		}
		return 5
	})
	cases["inf-row-wide"] = matrixInstance(t, 30, 12, 12, func(i, j int) float64 {
		if i == 17 {
			return math.Inf(1)
		}
		return ramp(i, j)
	})

	for name, in := range cases {
		checkBoundsMatchNested(t, name, in)
		lower := LowerBound(in)
		table := NewCandidates(in, 1)
		if math.IsNaN(lower) || math.IsNaN(table.rowMinBound()) {
			t.Errorf("%s: NaN bound", name)
		}
		for _, iters := range []int{1, 50} {
			v, lambda := table.lagrangianBound(iters, 1)
			if math.IsNaN(v) {
				t.Errorf("%s: LagrangianBound(%d) is NaN", name, iters)
			}
			for j, l := range lambda {
				if math.IsNaN(l) || l < 0 {
					t.Errorf("%s: LagrangianBound(%d): multiplier %d = %v", name, iters, j, l)
				}
			}
			if strings.HasPrefix(name, "inf-row") && !math.IsInf(v, 1) {
				t.Errorf("%s: LagrangianBound(%d) = %v, want +Inf for a row with no finite cost", name, iters, v)
			}
		}
		if strings.HasPrefix(name, "inf-row") && !math.IsInf(lower, 1) {
			t.Errorf("%s: LowerBound = %v, want +Inf for a row with no finite cost", name, lower)
		}
	}
}

// fuzzLambda is the multiplier alphabet of FuzzLowerBound: dyadic
// values, so that prices of different edges tie exactly, and NaN.
var fuzzLambda = [...]float64{0, 0.25, 0.5, 1, 2, math.NaN()}

// boundCase decodes a fuzz input into an instance of at most 12 devices
// and 20 edges, and multipliers for it: n, m, then n·m cost codes (0–7 as
// themselves, 8 as −0, 9 as +Inf), n·m weights in 1–8, m capacities,
// each 0–15 times ⌈n/m⌉, and m fuzzLambda codes. Bytes past the end read
// as 0.
func boundCase(data []byte) (*Instance, []float64, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n, m := 1+next()%12, 1+next()%20
	cost, weight, caps := make([][]float64, n), make([][]float64, n), make([]float64, m)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			switch code := next() % 10; code {
			case 8:
				cost[i][j] = math.Copysign(0, -1)
			case 9:
				cost[i][j] = math.Inf(1)
			default:
				cost[i][j] = float64(code)
			}
		}
	}
	for i := range weight {
		weight[i] = make([]float64, m)
		for j := range weight[i] {
			weight[i][j] = float64(1 + next()%8)
		}
	}
	for j := range caps {
		caps[j] = float64(next() % 16 * ((n + m - 1) / m))
	}
	lambda := make([]float64, m)
	for j := range lambda {
		lambda[j] = fuzzLambda[next()%len(fuzzLambda)]
	}
	in, err := NewInstance(cost, weight, caps)
	return in, lambda, err
}

// boundCaseBytes encodes an n×m input for boundCase: cost and weight
// codes from the given functions, every capacity at 3·⌈n/m⌉, then the
// multiplier codes.
func boundCaseBytes(n, m int, cost, weight func(i, j int) byte, lambda ...byte) []byte {
	b := []byte{byte(n - 1), byte(m - 1)}
	for _, code := range []func(i, j int) byte{cost, weight} {
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b = append(b, code(i, j))
			}
		}
	}
	for j := 0; j < m; j++ {
		b = append(b, 3)
	}
	return append(b, lambda...)
}

// FuzzLowerBound holds the candidate table to the nested reference bit
// for bit on small tie-dense instances on both sides of the table width:
// Argmin under the decoded multipliers, on every row, and the bounds at 1
// and 8 workers. On instances of at most 10 devices it also holds
// LowerBound at or below the optimum that BranchAndBound proves.
func FuzzLowerBound(f *testing.F) {
	mixed := func(i, j int) byte { return byte((i*3 + j*5) % 10) }
	cycle := func(i, j int) byte { return byte(i*7 + j*5) }
	f.Add(boundCaseBytes(6, 12, func(i, j int) byte { // an all-tie row
		if i == 2 {
			return 4
		}
		return mixed(i, j)
	}, cycle))
	f.Add(boundCaseBytes(5, 14, func(i, j int) byte { // the fence ties the k-th candidate
		if j <= candidateK {
			return 1
		}
		return 6
	}, cycle))
	f.Add(boundCaseBytes(7, 11, func(i, j int) byte { // an all-+Inf row
		if i == 4 {
			return 9
		}
		return mixed(i, j)
	}, cycle))
	f.Add(boundCaseBytes(8, 1, mixed, cycle, 5))                                           // m = 1, NaN multiplier
	f.Add(boundCaseBytes(10, 20, func(i, j int) byte { return byte((i + j) % 4) }, cycle)) // wide, tie-dense
	f.Add(boundCaseBytes(12, 5, mixed, cycle))                                             // m below the table width
	// Priced ties across cost order. Row 0: edge 11 (cost 2, λw = 1) ties
	// edge 7 (cost 3, λ = 0) at 3, and the lower index, edge 7, must win
	// though it comes later in the table. Row 1: the cheapest candidate,
	// edge 11 (cost 1, λw = 4), prices exactly at the fence, 5, where
	// edge 7, outside the table, ties it with a lower index.
	f.Add(boundCaseBytes(2, 12, func(i, j int) byte {
		switch {
		case j == 11:
			return byte(2 - i)
		case i == 0 && j == 7:
			return 3
		case i == 0:
			return 7
		}
		return 5
	}, func(i, j int) byte {
		if j == 11 {
			return byte(1 + 6*i) // weight 2 in row 0, 8 in row 1
		}
		return 0
	}, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, lambda, err := boundCase(data)
		if err != nil {
			t.Fatalf("decoded instance rejected: %v", err)
		}
		table := NewCandidates(in, 1)
		for i := 0; i < in.N(); i++ {
			price, edge, weight := table.Argmin(i, lambda)
			wantP, wantJ := nestedArgmin(in, i, lambda)
			if edge != wantJ || math.Float64bits(price) != math.Float64bits(wantP) ||
				edge >= 0 && math.Float64bits(weight) != math.Float64bits(in.WeightAt(i, edge)) {
				t.Fatalf("row %d: Argmin = (%v, %d, %v), scan (%v, %d)", i, price, edge, weight, wantP, wantJ)
			}
		}
		checkBoundsMatchNested(t, "fuzz", in)
		if in.N() > 10 {
			return
		}
		res, err := branchAndBound(in, 200_000)
		switch {
		case errors.Is(err, ErrInfeasible), res != nil && !res.Proven:
			return // no proven optimum to compare with
		case err != nil:
			t.Fatalf("BranchAndBound: %v", err)
		}
		if lb := LowerBound(in); lb > res.Cost+1e-9*(1+math.Abs(res.Cost)) {
			t.Fatalf("LowerBound %v above the proven optimum %v", lb, res.Cost)
		}
	})
}
