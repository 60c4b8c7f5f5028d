package assign

import (
	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// newTestSource returns a fixed-seed source for repair tests.
func newTestSource() *xrand.Source { return xrand.New(12345) }

// matrices returns fresh nested copies of in's cost and weight rows, for
// tests that rebuild a variant of an instance through gap.NewInstance.
func matrices(in *gap.Instance) (cost, weight [][]float64) {
	cost, weight = make([][]float64, in.N()), make([][]float64, in.N())
	for i := range cost {
		cost[i] = append([]float64(nil), in.CostRow(i)...)
		weight[i] = make([]float64, in.M())
		for j := range weight[i] {
			weight[i][j] = in.WeightAt(i, j)
		}
	}
	return cost, weight
}
