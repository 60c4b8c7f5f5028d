package gap

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"taccc/internal/jsonx"
	"taccc/internal/topology"
	"taccc/internal/workload"
)

// weightRow returns device i's weights on every edge, read through
// WeightAt into a fresh slice.
func weightRow(in *Instance, i int) []float64 {
	row := make([]float64, in.M())
	for j := range row {
		row[j] = in.WeightAt(i, j)
	}
	return row
}

// tiny returns a 3-device, 2-edge instance where the per-device cheapest
// edges would overload edge 0.
func tiny(t testing.TB) *Instance {
	t.Helper()
	in, err := NewInstance(
		[][]float64{{1, 5}, {2, 6}, {3, 4}},
		[][]float64{{2, 2}, {2, 2}, {2, 2}},
		[]float64{4, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	ok := func(c, w [][]float64, cap []float64) error {
		_, err := NewInstance(c, w, cap)
		return err
	}
	if err := ok([][]float64{{1}}, [][]float64{{1}}, []float64{1}); err != nil {
		t.Fatalf("valid 1x1 rejected: %v", err)
	}
	cases := []struct {
		name string
		c, w [][]float64
		cap  []float64
		want string
	}{
		{"no devices", nil, nil, []float64{1}, "gap: instance has no devices"},
		{"no edges", [][]float64{{}}, [][]float64{{}}, nil, "gap: instance has no edge devices"},
		{"ragged cost", [][]float64{{1, 2}, {1}}, [][]float64{{1, 1}, {1, 1}}, []float64{1, 1}, "gap: cost row 1 has 1 cols, want 2"},
		{"ragged weight", [][]float64{{1, 2}}, [][]float64{{1}}, []float64{1, 1}, "gap: weight row 0 has 1 cols, want 2"},
		{"weight rows", [][]float64{{1}}, nil, []float64{1}, "gap: weight rows 0 != cost rows 1"},
		{"negative cost", [][]float64{{-1}}, [][]float64{{1}}, []float64{1}, "gap: invalid cost -1 at (0,0)"},
		{"NaN cost", [][]float64{{math.NaN()}}, [][]float64{{1}}, []float64{1}, "gap: invalid cost NaN at (0,0)"},
		{"zero weight", [][]float64{{1}}, [][]float64{{0}}, []float64{1}, "gap: invalid weight 0 at (0,0)"},
		{"inf weight", [][]float64{{1}}, [][]float64{{math.Inf(1)}}, []float64{1}, "gap: invalid weight +Inf at (0,0)"},
		{"negative capacity", [][]float64{{1}}, [][]float64{{1}}, []float64{-1}, "gap: invalid capacity -1 at edge 0"},
		{"inf capacity", [][]float64{{1, 1}}, [][]float64{{1, 1}}, []float64{1, math.Inf(1)}, "gap: invalid capacity +Inf at edge 1"},
	}
	for _, tc := range cases {
		err := ok(tc.c, tc.w, tc.cap)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
	// +Inf cost is allowed (unreachable pair).
	if err := ok([][]float64{{math.Inf(1), 1}}, [][]float64{{1, 1}}, []float64{1, 1}); err != nil {
		t.Errorf("+Inf cost rejected: %v", err)
	}
}

// TestNewInstanceFirstBadCell pins which cell the error names when rows
// hold several bad cells: the first in row order, each cell's cost
// before its weight, and a row-constant weight where the row's first
// cell is. The instances have 3 devices on 4 edges; weights are dense
// (12 cells) or row-constant (3).
func TestNewInstanceFirstBadCell(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cells := func(set map[[2]int]float64, n int, fill float64) []float64 {
		out := make([]float64, n)
		for k := range out {
			out[k] = fill
		}
		for at, v := range set {
			out[at[0]*4+at[1]] = v
		}
		return out
	}
	cases := []struct {
		name   string
		cost   map[[2]int]float64
		weight map[[2]int]float64
		dense  bool
		want   string
	}{
		{"dense: bad weight before a bad cost", map[[2]int]float64{{1, 2}: nan}, map[[2]int]float64{{1, 0}: -1}, true,
			"gap: invalid weight -1 at (1,0)"},
		{"dense: NaN cost before a bad weight", map[[2]int]float64{{1, 1}: nan}, map[[2]int]float64{{1, 3}: inf}, true,
			"gap: invalid cost NaN at (1,1)"},
		{"dense: cost and weight bad in one cell", map[[2]int]float64{{1, 3}: -2}, map[[2]int]float64{{1, 3}: nan}, true,
			"gap: invalid cost -2 at (1,3)"},
		{"dense: bad cells in later rows", map[[2]int]float64{{2, 0}: -inf, {1, 3}: nan}, map[[2]int]float64{{1, 2}: 0}, true,
			"gap: invalid weight 0 at (1,2)"},
		{"row-constant: bad weight before a bad cost", map[[2]int]float64{{1, 2}: nan}, map[[2]int]float64{{0, 1}: 0}, false,
			"gap: invalid weight 0 at (1,0)"},
		{"row-constant: bad cost in the first cell", map[[2]int]float64{{1, 0}: -1}, map[[2]int]float64{{0, 1}: nan}, false,
			"gap: invalid cost -1 at (1,0)"},
		{"row-constant: NaN cost before a bad weight's row", map[[2]int]float64{{1, 3}: nan}, map[[2]int]float64{{0, 2}: -inf}, false,
			"gap: invalid cost NaN at (1,3)"},
		{"row-constant: bad cells in later rows", map[[2]int]float64{{2, 0}: nan}, map[[2]int]float64{{0, 1}: inf, {0, 2}: -1}, false,
			"gap: invalid weight +Inf at (1,0)"},
	}
	for _, tc := range cases {
		nw := 3
		if tc.dense {
			nw = 12
		}
		_, err := newInstance(3, cells(tc.cost, 12, 2), cells(tc.weight, nw, 1), []float64{10, 10, 10, 10})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestMaxWeight checks Instance.MaxWeight against a scan of WeightAt on
// both weight layouts.
func TestMaxWeight(t *testing.T) {
	dense, err := NewInstance(
		[][]float64{{1, 2, 3}, {1, 2, 3}},
		[][]float64{{4, 9, 2}, {7, 0.5, 7}},
		[]float64{10, 10, 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	rowConst, err := newInstance(2, []float64{1, 2, 3, 1, 2, 3}, []float64{6, 0.25}, []float64{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		in   *Instance
		want []float64
	}{"dense": {dense, []float64{9, 7}}, "row-constant": {rowConst, []float64{6, 0.25}}} {
		for i, want := range c.want {
			if got := c.in.MaxWeight(i); got != want || got != slices.Max(weightRow(c.in, i)) {
				t.Errorf("%s: MaxWeight(%d) = %v, want %v", name, i, got, want)
			}
		}
	}
}

func TestNewAssignmentValidation(t *testing.T) {
	in := tiny(t)
	if _, err := NewAssignment(in, []int{0, 1}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := NewAssignment(in, []int{0, 1, 2}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewAssignment(in, []int{0, -1, 0}); err == nil {
		t.Error("negative edge accepted")
	}
	inf, err := NewInstance(
		[][]float64{{math.Inf(1), 1}},
		[][]float64{{1, 1}},
		[]float64{1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAssignment(inf, []int{0}); err == nil {
		t.Error("assignment to unreachable edge accepted")
	}
}

func TestObjectives(t *testing.T) {
	in := tiny(t)
	a, err := NewAssignment(in, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.TotalCost(a); got != 1+2+4 {
		t.Fatalf("TotalCost = %v, want 7", got)
	}
	if got := in.MeanCost(a); math.Abs(got-7.0/3) > 1e-12 {
		t.Fatalf("MeanCost = %v", got)
	}
	if got := in.MaxCost(a); got != 4 {
		t.Fatalf("MaxCost = %v, want 4", got)
	}
	loads := in.Loads(a)
	if loads[0] != 4 || loads[1] != 2 {
		t.Fatalf("Loads = %v, want [4 2]", loads)
	}
	if !in.Feasible(a) {
		t.Fatal("feasible assignment reported infeasible")
	}
	util := in.Utilization(a)
	if util[0] != 1 || util[1] != 0.5 {
		t.Fatalf("Utilization = %v", util)
	}
	if got := in.Imbalance(a); math.Abs(got-1/0.75) > 1e-12 {
		t.Fatalf("Imbalance = %v, want %v", got, 1/0.75)
	}
}

func TestViolations(t *testing.T) {
	in := tiny(t)
	a, err := NewAssignment(in, []int{0, 0, 0}) // load 6 on cap-4 edge
	if err != nil {
		t.Fatal(err)
	}
	v := in.Violations(a)
	if len(v) != 1 || v[0].Edge != 0 || math.Abs(v[0].Excess-2) > 1e-9 {
		t.Fatalf("Violations = %+v", v)
	}
	if in.Feasible(a) {
		t.Fatal("overloaded assignment reported feasible")
	}
}

func TestUtilizationZeroCapacity(t *testing.T) {
	in, err := NewInstance(
		[][]float64{{1, 2}},
		[][]float64{{1, 1}},
		[]float64{0, 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssignment(in, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	util := in.Utilization(a)
	if !math.IsInf(util[0], 1) {
		t.Fatalf("util on zero-cap loaded edge = %v, want +Inf", util[0])
	}
	if util[1] != 0 {
		t.Fatalf("idle edge util = %v, want 0", util[1])
	}
}

func TestImbalanceIdle(t *testing.T) {
	in := tiny(t)
	// Imbalance of an assignment exists only with an assignment; emulate
	// "idle" with zero utilization via zero weights — not allowed, so
	// instead check the perfectly-balanced case.
	a, err := NewAssignment(in, []int{0, 1, 0}) // loads [4, 2]? w all 2: [4 2]
	if err != nil {
		t.Fatal(err)
	}
	if in.Imbalance(a) < 1 {
		t.Fatal("imbalance below 1")
	}
}

func TestFromTopology(t *testing.T) {
	cfg := topology.Config{NumIoT: 12, NumEdge: 3, NumGateways: 4, Seed: 5}
	g, err := topology.Hierarchical(cfg, topology.PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	dm := topology.NewDelayMatrix(g, topology.LatencyCost)
	devs, err := workload.Generate(12, workload.DefaultProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	caps, err := UniformCapacities(3, workload.TotalLoad(devs), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	in, err := FromTopology(dm, devs, caps)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 12 || in.M() != 3 {
		t.Fatalf("dims %dx%d", in.N(), in.M())
	}
	for i := 0; i < in.N(); i++ {
		for j := 0; j < in.M(); j++ {
			if in.CostAt(i, j) != dm.DelayMs[i][j] {
				t.Fatal("cost matrix does not match delay matrix")
			}
			if in.WeightAt(i, j) != devs[i].Load() {
				t.Fatal("weight does not match device load")
			}
		}
	}
}

func TestFromTopologyDimensionErrors(t *testing.T) {
	cfg := topology.Config{NumIoT: 4, NumEdge: 2, NumGateways: 2, Seed: 1}
	g, err := topology.Hierarchical(cfg, topology.PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	dm := topology.NewDelayMatrix(g, topology.LatencyCost)
	devs, err := workload.Generate(3, workload.DefaultProfile(1)) // wrong count
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromTopology(dm, devs, []float64{1, 1}); err == nil {
		t.Error("device-count mismatch accepted")
	} else if want := "gap: delay matrix has 4 IoT rows, got 3 devices"; err.Error() != want {
		t.Errorf("device-count mismatch: error %q, want %q", err, want)
	}
	devs4, err := workload.Generate(4, workload.DefaultProfile(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromTopology(dm, devs4, []float64{1}); err == nil {
		t.Error("capacity-count mismatch accepted")
	} else if want := "gap: delay matrix has 2 edge cols, got 1 capacities"; err.Error() != want {
		t.Errorf("capacity-count mismatch: error %q, want %q", err, want)
	}
}

// TestFromTopologyAdoptsOnlyAStore requires FromTopology to adopt the
// row-major store behind a delay matrix that NewDelayMatrix built, so
// its rows and the instance's cost rows are the same memory, and to
// copy a hand-built matrix, whose later writes must change nothing.
// Every device's load is its weight on every edge.
func TestFromTopologyAdoptsOnlyAStore(t *testing.T) {
	g, err := topology.Hierarchical(topology.Config{NumIoT: 12, NumEdge: 3, NumGateways: 4, Seed: 5}, topology.PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	devs, err := workload.Generate(12, workload.DefaultProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	caps := []float64{1e6, 1e6, 1e6}
	dm := topology.NewDelayMatrix(g, topology.LatencyCost)
	in, err := FromTopology(dm, devs, caps)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range dm.DelayMs {
		if &row[0] != &in.CostRow(i)[0] {
			t.Errorf("row %d was copied, not adopted", i)
		}
		for j := range row {
			if got, want := in.WeightAt(i, j), devs[i].Load(); got != want {
				t.Errorf("WeightAt(%d, %d) = %v, want the load %v", i, j, got, want)
			}
		}
	}

	idle := append([]workload.Device(nil), devs...)
	idle[3].RateHz = 0
	if _, err := FromTopology(dm, idle, caps); err == nil || err.Error() != "gap: invalid weight 0 at (3,0)" {
		t.Errorf("a device with no load: error %v, want gap: invalid weight 0 at (3,0)", err)
	}

	hand := &topology.DelayMatrix{IoT: dm.IoT, Edge: dm.Edge, DelayMs: make([][]float64, len(dm.DelayMs))}
	for i, row := range dm.DelayMs {
		hand.DelayMs[i] = append([]float64(nil), row...)
	}
	copied, err := FromTopology(hand, devs, caps)
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(copied.CostRow(0), copied.CostRow(11))
	hand.DelayMs[0][0], hand.DelayMs[11][2] = 1e9, 1e9
	if after := fmt.Sprint(copied.CostRow(0), copied.CostRow(11)); after != before {
		t.Fatalf("writes to a hand-built matrix changed the instance:\nbefore %s\nafter  %s", before, after)
	}
}

// TestFromTopologyBytes requires FromTopology to allocate O(n+m) bytes
// over a delay matrix that owns a store: the loads and the capacities,
// not an n×m cost or weight array.
func TestFromTopologyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	const n, m = 1000, 40
	g, err := topology.Hierarchical(topology.Config{NumIoT: n, NumEdge: m, NumGateways: 2 * m, Seed: 5}, topology.PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	dm := topology.NewDelayMatrix(g, topology.LatencyCost)
	devs, err := workload.Generate(n, workload.DefaultProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]float64, m)
	for j := range caps {
		caps[j] = float64(n)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FromTopology(dm, devs, caps); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, limit := res.AllocedBytesPerOp(), int64(16*(n+m)); got > limit {
		t.Errorf("FromTopology allocates %d B at %dx%d, want at most %d (an n×m store is %d B)", got, n, m, limit, 8*n*m)
	}
}

// TestNewInstanceCopiesMatrices requires an instance to keep its own
// copy of the matrices it was built from: writes to the caller's slices
// after NewInstance must change none of its answers.
func TestNewInstanceCopiesMatrices(t *testing.T) {
	cost := [][]float64{{1, 2}, {3, 4}}
	weight := [][]float64{{1, 1}, {1, 1}}
	in, err := NewInstance(cost, weight, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	a := &Assignment{Of: []int{0, 0}}
	snapshot := func() string {
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(in.TotalCost(a), in.MaxCost(a), in.Loads(a), in.Feasible(a),
			in.CostRow(0), in.CostRow(1), weightRow(in, 0), weightRow(in, 1), buf.String())
	}
	before := snapshot()
	cost[0][0] = 100
	weight[1][0] = 7
	if after := snapshot(); after != before {
		t.Fatalf("writes to the caller's matrices changed the instance:\nbefore %s\nafter  %s", before, after)
	}
}

// TestFromTopologyAllocs pins FromTopology to a small number of
// allocations that does not grow with the device count: the cost and
// weight stores are one slice each, never one per row.
func TestFromTopologyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	const m = 50
	allocs := func(n int) float64 {
		dm := &topology.DelayMatrix{IoT: make([]topology.NodeID, n), Edge: make([]topology.NodeID, m), DelayMs: make([][]float64, n)}
		devs := make([]workload.Device, n)
		for i := range dm.DelayMs {
			dm.DelayMs[i] = make([]float64, m)
			for j := range dm.DelayMs[i] {
				dm.DelayMs[i][j] = float64(1 + (i+j)%7)
			}
			devs[i] = workload.Device{RateHz: 1, ComputeUnits: 0.5}
		}
		caps := make([]float64, m)
		for j := range caps {
			caps[j] = float64(n)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := FromTopology(dm, devs, caps); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, n := range []int{200, 2000} {
		if got := allocs(n); got > 8 {
			t.Errorf("FromTopology allocates %.0f times at %dx%d, want at most 8 at any size", got, n, m)
		}
	}
}

func TestUniformCapacities(t *testing.T) {
	caps, err := UniformCapacities(4, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		if c != 50 {
			t.Fatalf("caps = %v, want all 50", caps)
		}
	}
	for _, tc := range []struct {
		m    int
		load float64
		rho  float64
	}{{0, 1, 0.5}, {2, 1, 0}, {2, 1, 1.5}, {2, -1, 0.5}} {
		if _, err := UniformCapacities(tc.m, tc.load, tc.rho); err == nil {
			t.Errorf("UniformCapacities(%d, %v, %v) accepted", tc.m, tc.load, tc.rho)
		}
	}
}

// TestBuildersRejectBadRho: UniformCapacities and Synthetic return their
// rho error for every rho outside (0, 1], NaN included.
func TestBuildersRejectBadRho(t *testing.T) {
	for _, rho := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1.5, 1e300} {
		if _, err := UniformCapacities(2, 1, rho); err == nil || !strings.Contains(err.Error(), "rho") {
			t.Errorf("UniformCapacities(rho=%v): err %v, want the rho error", rho, err)
		}
		if _, err := Synthetic(SyntheticUniform, 4, 2, rho, 1); err == nil || !strings.Contains(err.Error(), "rho") {
			t.Errorf("Synthetic(rho=%v): err %v, want the rho error", rho, err)
		}
	}
}

func TestSyntheticValid(t *testing.T) {
	for _, kind := range []SyntheticKind{SyntheticUniform, SyntheticCorrelated} {
		in, err := Synthetic(kind, 30, 5, 0.8, 7)
		if err != nil {
			t.Fatal(err)
		}
		if in.N() != 30 || in.M() != 5 {
			t.Fatalf("dims %dx%d", in.N(), in.M())
		}
		// Capacity is sized from average weights, so the ratio of the
		// devices' summed minimum weights to the total capacity must
		// come out strictly below rho but positive.
		minW, totalC := 0.0, 0.0
		for i := 0; i < in.N(); i++ {
			minW += slices.Min(weightRow(in, i))
		}
		for _, c := range in.Capacity {
			totalC += c
		}
		if tight := minW / totalC; tight <= 0 || tight >= 0.8 {
			t.Fatalf("tightness = %v, want in (0, 0.8)", tight)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := Synthetic(SyntheticUniform, 10, 3, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(SyntheticUniform, 10, 3, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.M(); j++ {
			if a.CostAt(i, j) != b.CostAt(i, j) || a.WeightAt(i, j) != b.WeightAt(i, j) {
				t.Fatal("same-seed synthetic instances differ")
			}
		}
	}
}

func TestSyntheticErrors(t *testing.T) {
	if _, err := Synthetic(SyntheticUniform, 0, 3, 0.5, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Synthetic(SyntheticUniform, 3, 0, 0.5, 1); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Synthetic(SyntheticUniform, 3, 3, 0, 1); err == nil {
		t.Error("rho=0 accepted")
	}
	if _, err := Synthetic(SyntheticKind(99), 3, 3, 0.5, 1); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	in, err := Synthetic(SyntheticCorrelated, 8, 3, 0.7, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	in2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if in2.N() != in.N() || in2.M() != in.M() {
		t.Fatal("round trip changed dimensions")
	}
	for i := 0; i < in.N(); i++ {
		for j := 0; j < in.M(); j++ {
			if in.CostAt(i, j) != in2.CostAt(i, j) {
				t.Fatal("round trip changed costs")
			}
		}
	}
}

func TestAssignmentJSONRoundTrip(t *testing.T) {
	in := tiny(t)
	a, err := NewAssignment(in, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var aj assignmentJSON
	if err := jsonx.Decode(&buf, &aj); err != nil {
		t.Fatal(err)
	}
	a2, err := NewAssignment(in, aj.Of)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Of {
		if a.Of[i] != a2.Of[i] {
			t.Fatal("assignment round trip mismatch")
		}
	}
	if _, err := ReadJSON(bytes.NewReader([]byte("{"))); err == nil {
		t.Error("truncated instance JSON accepted")
	}
}
