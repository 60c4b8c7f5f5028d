package topology

import (
	"fmt"
	"math"
	"sort"
)

// EvaluateCongestionMultipath is the congestion-aware routing counterpart
// of EvaluateCongestion: instead of pinning every flow to its single
// shortest path, each flow (heaviest first) picks the cheapest of its k
// shortest loopless paths *under the load already committed*, the way an
// ECMP/segment-routed underlay would spread hotspot traffic. The
// assignment (which edge serves which device) is unchanged — only routing
// differs — so comparing against EvaluateCongestion isolates the value of
// multipath routing.
func (g *Graph) EvaluateCongestionMultipath(dm *DelayMatrix, flows []Flow, assignment []int, k int) (*CongestionResult, error) {
	if len(flows) != len(assignment) {
		return nil, fmt.Errorf("topology: %d flows but %d assignments", len(flows), len(assignment))
	}
	if k <= 0 {
		return nil, fmt.Errorf("topology: k must be positive, got %d", k)
	}
	for _, col := range assignment {
		if col < 0 || col >= len(dm.Edge) {
			return nil, fmt.Errorf("topology: assignment column %d out of range", col)
		}
	}
	// Heaviest flows route first: they distort utilization the most, so
	// they get first pick while links are empty.
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return flows[order[a]].Mbps() > flows[order[b]].Mbps() })

	c := newCoreGraph(g, LatencyCost, false)
	load := make(map[linkKey]float64)
	chosen := make([][]NodeID, len(flows))
	for _, fi := range order {
		f := flows[fi]
		src, dst := f.IoT, dm.Edge[assignment[fi]]
		if !g.valid(src) || !g.valid(dst) {
			return nil, fmt.Errorf("topology: flow %d endpoints %d-%d out of range", fi, src, dst)
		}
		paths, err := c.kShortest(src, dst, k)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("topology: flow %d cannot reach edge column %d", fi, assignment[fi])
		}
		best, bestCost := 0, math.Inf(1)
		for pi, p := range paths {
			if d := g.effectiveDelay(p.nodes, f.PayloadKB, load); d < bestCost {
				best, bestCost = pi, d
			}
		}
		chosen[fi] = paths[best].nodes
		tally(load, chosen[fi], f.Mbps())
	}
	return congestionResult(g, flows, chosen, load), nil
}
