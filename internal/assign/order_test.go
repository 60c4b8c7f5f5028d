package assign

import (
	"slices"
	"sort"
	"testing"

	"taccc/internal/gap"
	"taccc/internal/topology"
	"taccc/internal/workload"
	"taccc/internal/xrand"
)

// stableByMaxWeight is the packing order as it was first written: each
// device's largest weight from a scan of its row, then a stable sort of
// the indices by decreasing weight. heaviestFirst must reproduce it.
func stableByMaxWeight(in *gap.Instance, order []int) []int {
	order = slices.Clone(order)
	maxW := make([]float64, in.N())
	for _, i := range order {
		for j := 0; j < in.M(); j++ {
			if w := in.WeightAt(i, j); w > maxW[i] {
				maxW[i] = w
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return maxW[order[a]] > maxW[order[b]] })
	return order
}

// tiedInstances returns a dense and a row-constant instance of 300
// devices whose weights take three values, so most devices tie with many
// others.
func tiedInstances(t *testing.T) map[string]*gap.Instance {
	t.Helper()
	const n, m = 300, 4
	src := xrand.New(3)
	cost, weight := make([][]float64, n), make([][]float64, n)
	for i := range cost {
		cost[i], weight[i] = make([]float64, m), make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = src.Uniform(1, 10)
			weight[i][j] = float64(1 + src.Intn(3))
		}
	}
	dense, err := gap.NewInstance(cost, weight, []float64{400, 400, 400, 400})
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Hierarchical(topology.Config{NumIoT: n, NumEdge: m, NumGateways: 8, Seed: 3}, topology.PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]workload.Device, n)
	for i := range devices {
		devices[i] = workload.Device{ID: i, RateHz: 2, ComputeUnits: float64(1 + src.Intn(3))}
	}
	rowConst, err := gap.FromTopology(topology.NewDelayMatrix(g, topology.LatencyCost), devices, []float64{400, 400, 400, 400})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*gap.Instance{"dense": dense, "row-constant": rowConst}
}

// TestHeaviestFirstMatchesStableSort pins the weight-keyed packing order
// to the stable sort it replaced, over every device and over an
// ascending subset (lp-rounding's fractional devices), on both weight
// layouts with tied weights.
func TestHeaviestFirstMatchesStableSort(t *testing.T) {
	for name, in := range tiedInstances(t) {
		all := make([]int, in.N())
		for i := range all {
			all[i] = i
		}
		if got, want := byDecreasingLoad(in), stableByMaxWeight(in, all); !slices.Equal(got, want) {
			t.Errorf("%s: byDecreasingLoad = %v, want %v", name, got, want)
		}
		var subset []int
		for i := 0; i < in.N(); i += 3 {
			subset = append(subset, i)
		}
		want := stableByMaxWeight(in, subset)
		if heaviestFirst(in, subset); !slices.Equal(subset, want) {
			t.Errorf("%s: heaviestFirst on a subset = %v, want %v", name, subset, want)
		}
	}
}
