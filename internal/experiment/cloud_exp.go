package experiment

import (
	"errors"
	"fmt"

	"taccc/internal/assign"
	"taccc/internal/gap"
	"taccc/internal/stats"
	"taccc/internal/xrand"
)

// F16 adds a cloud fallback tier (WAN delay, effectively unbounded
// capacity) and sweeps capacity tightness with skewed edge capacities:
// as the edge fills up, devices spill to the cloud and pay the WAN round
// trip. The metric pair (mean delay, offload fraction) shows how much
// on-edge capacity a smarter assigner preserves before resorting to the
// cloud.
func F16(o Options) ([]*Table, error) {
	o = o.withDefaults()
	n, m := 100, 10
	cloudMs := 60.0
	// Edge capacity as a fraction of total demand; below 1.0 the edge
	// tier cannot hold everyone and the overflow must go to the cloud.
	scales := []float64{1.2, 1.0, 0.8, 0.6}
	if o.Quick {
		n, m = 30, 4
		scales = []float64{1.2, 0.7}
	}
	algos := []string{"greedy", "qlearning"}
	tab := &Table{
		ID:     "F16",
		Title:  fmt.Sprintf("cloud offload vs edge provisioning, n=%d m=%d, cloud RTT %.0f ms, skewed capacities", n, m, cloudMs),
		Header: []string{"edge capacity / demand", "greedy mean ms", "greedy offload %", "qlearning mean ms", "qlearning offload %"},
		Note:   fmt.Sprintf("%d replications; the cloud column absorbs overflow at a fixed WAN delay", o.Reps),
	}
	reg := assign.NewRegistry()
	for _, scale := range scales {
		cells := []interface{}{scale}
		for _, name := range algos {
			var mean, off stats.Welford
			for r := 0; r < o.Reps; r++ {
				sc := Scenario{
					NumIoT: n, NumEdge: m, Rho: 1.0, CapacitySkew: 0.5,
					Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("F16-%v-%d", scale, r)),
				}
				b, err := sc.Build()
				if err != nil {
					return nil, err
				}
				// Shrink/grow the edge tier relative to demand
				// (instances are read-only: rebuild).
				in := b.Instance
				scaled := make([]float64, in.M())
				for j, c := range in.Capacity {
					scaled[j] = c * scale
				}
				cost, weight := make([][]float64, in.N()), make([][]float64, in.N())
				for i := range cost {
					cost[i], weight[i] = in.CostRow(i), make([]float64, in.M())
					for j := range weight[i] {
						weight[i][j] = in.WeightAt(i, j)
					}
				}
				rebuilt, err := gap.NewInstance(cost, weight, scaled)
				if err != nil {
					return nil, err
				}
				withCloud, err := gap.WithCloud(rebuilt, cloudMs)
				if err != nil {
					return nil, err
				}
				a, err := reg.New(name, xrand.SplitSeed(o.Seed, fmt.Sprintf("F16-%s-%v-%d", name, scale, r)))
				if err != nil {
					return nil, err
				}
				got, err := a.Assign(withCloud)
				if err != nil {
					if errors.Is(err, gap.ErrInfeasible) {
						continue
					}
					return nil, err
				}
				count, frac, err := gap.CloudOffload(withCloud, got)
				if err != nil {
					return nil, err
				}
				_ = count
				mean.Add(withCloud.MeanCost(got))
				off.Add(100 * frac)
			}
			if mean.N() == 0 {
				cells = append(cells, "-", "-")
				continue
			}
			cells = append(cells, mean.Mean(), off.Mean())
		}
		tab.AddRow(cells...)
	}
	return []*Table{tab}, nil
}
