package topology

import (
	"cmp"
	"fmt"
	"slices"
)

// Flow is one IoT device's steady-state traffic demand toward its edge
// server.
type Flow struct {
	// IoT is the source node.
	IoT NodeID
	// RateHz is the request rate; PayloadKB the mean uplink payload.
	RateHz    float64
	PayloadKB float64
}

// Mbps returns the flow's offered load in megabits per second.
func (f Flow) Mbps() float64 {
	// kB/req * 8 = kbit/req; * rate = kbit/s; / 1000 = Mbit/s.
	return f.PayloadKB * 8 * f.RateHz / 1000
}

// LinkLoad reports the utilization of one link under a traffic assignment.
type LinkLoad struct {
	Link Link
	// Mbps is the total offered load (both directions aggregated; the
	// uplink direction dominates for IoT traffic).
	Mbps float64
	// Utilization is Mbps / bandwidth (0 for links with unspecified
	// bandwidth).
	Utilization float64
}

// CongestionResult is the outcome of evaluating an assignment at link
// granularity.
type CongestionResult struct {
	// DelayMs[k] is flow k's effective path delay including queueing
	// inflation on loaded links.
	DelayMs []float64
	// Links lists every link that carries traffic, with utilization.
	Links []LinkLoad
	// Overloaded lists links whose offered load meets or exceeds their
	// bandwidth.
	Overloaded []Link
}

// MeanDelayMs returns the mean effective delay across flows.
func (r *CongestionResult) MeanDelayMs() float64 {
	if len(r.DelayMs) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range r.DelayMs {
		sum += d
	}
	return sum / float64(len(r.DelayMs))
}

// MaxUtilization returns the highest link utilization observed.
func (r *CongestionResult) MaxUtilization() float64 {
	max := 0.0
	for _, l := range r.Links {
		if l.Utilization > max {
			max = l.Utilization
		}
	}
	return max
}

// utilCap bounds the queueing multiplier: utilization is clamped to this
// value in the 1/(1-u) factor so overloaded links produce large-but-finite
// delays (they are also reported in Overloaded).
const utilCap = 0.95

// EvaluateCongestion routes every flow along its shortest path (by
// configured latency) to the assigned edge, accumulates per-link load and
// computes effective delays with an M/M/1-style transmission inflation:
//
//	linkDelay = latency + transmission(payload) / (1 - min(util, 0.95))
//
// The delay matrix supplies the edge columns; assign[k] selects the column
// serving flow k. Delay-matrix-driven assigners are blind to this shared-
// link contention, which is exactly what the F9 experiment measures.
func EvaluateCongestion(g *Graph, dm *DelayMatrix, flows []Flow, assignment []int) (*CongestionResult, error) {
	paths, load, err := routeFlows(newEdgeTrees(g, dm.Edge), flows, assignment)
	if err != nil {
		return nil, err
	}
	return congestionResult(g, flows, paths, load), nil
}

// CongestionAwareDelayMatrix rebuilds an IoT-by-edge delay matrix whose
// entries include the queueing inflation the *current* assignment induces:
// entry (i, j) is the effective delay device i would see on edge j given
// everyone else's traffic stays put. Iterating assignment and matrix
// refresh a few rounds yields congestion-aware configurations (see
// experiment F9).
func CongestionAwareDelayMatrix(g *Graph, dm *DelayMatrix, flows []Flow, assignment []int) (*DelayMatrix, error) {
	// Per-link loads of the standing assignment, routed as
	// EvaluateCongestion routes them, on the trees every entry walks.
	trees := newEdgeTrees(g, dm.Edge)
	_, load, err := routeFlows(trees, flows, assignment)
	if err != nil {
		return nil, err
	}
	out := newDelayMatrix(append([]NodeID(nil), dm.IoT...), append([]NodeID(nil), dm.Edge...))
	iotRow := make(map[NodeID]int, len(dm.IoT))
	for i, id := range dm.IoT {
		iotRow[id] = i
	}
	for k, f := range flows {
		i, ok := iotRow[f.IoT]
		if !ok {
			return nil, fmt.Errorf("topology: flow %d source %d not in delay matrix", k, f.IoT)
		}
		for j := range dm.Edge {
			out.DelayMs[i][j] = Infinity
			if path := trees.pathTo(j, f.IoT); path != nil {
				out.DelayMs[i][j] = g.effectiveDelay(path, f.PayloadKB, load)
			}
		}
	}
	return out, nil
}

// edgeTrees holds the latency shortest-path trees rooted at a delay
// matrix's edge columns, each searched on first use over one whole
// compact build of the graph.
type edgeTrees struct {
	c     *coreGraph
	edge  []NodeID
	trees []spTree
}

func newEdgeTrees(g *Graph, edge []NodeID) *edgeTrees {
	return &edgeTrees{c: newCoreGraph(g, LatencyCost, false), edge: edge, trees: make([]spTree, len(edge))}
}

// pathTo returns the shortest latency path from edge column j to node v,
// or nil when v is unreachable.
func (t *edgeTrees) pathTo(j int, v NodeID) []NodeID {
	if t.trees[j].dist == nil {
		prev := make([]int, len(t.c.ids))
		// AddLink rejects negative latencies, so no search fails.
		dist, _ := t.c.shortest(t.c.index[t.edge[j]], -1, nil, prev)
		t.trees[j] = spTree{dist, prev}
	}
	return t.c.pathTo(t.trees[j], v)
}

// routeFlows routes every flow along its tree path from its assigned
// edge column and returns the paths and the per-link loads they carry.
func routeFlows(t *edgeTrees, flows []Flow, assignment []int) ([][]NodeID, map[linkKey]float64, error) {
	if len(flows) != len(assignment) {
		return nil, nil, fmt.Errorf("topology: %d flows but %d assignments", len(flows), len(assignment))
	}
	for _, col := range assignment {
		if col < 0 || col >= len(t.edge) {
			return nil, nil, fmt.Errorf("topology: assignment column %d out of range", col)
		}
	}
	load := make(map[linkKey]float64)
	paths := make([][]NodeID, len(flows))
	for k, f := range flows {
		paths[k] = t.pathTo(assignment[k], f.IoT)
		if paths[k] == nil {
			return nil, nil, fmt.Errorf("topology: flow %d cannot reach edge column %d", k, assignment[k])
		}
		tally(load, paths[k], f.Mbps())
	}
	return paths, load, nil
}

// linkKey identifies an undirected link for load accounting.
type linkKey struct{ a, b NodeID }

func normKey(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// tally adds mbps to the load of every link along path.
func tally(load map[linkKey]float64, path []NodeID, mbps float64) {
	for h := 0; h+1 < len(path); h++ {
		load[normKey(path[h], path[h+1])] += mbps
	}
}

// effectiveDelay returns a path's delay for the given payload under the
// supplied per-link loads (Mbps): each link's latency plus its
// transmission time inflated by 1/(1-util), with utilization capped.
func (g *Graph) effectiveDelay(path []NodeID, payloadKB float64, load map[linkKey]float64) float64 {
	total := 0.0
	for h := 0; h+1 < len(path); h++ {
		l, ok := g.LinkBetween(path[h], path[h+1])
		if !ok {
			return Infinity
		}
		total += l.LatencyMs
		if l.BandwidthMbps > 0 {
			u := load[normKey(path[h], path[h+1])] / l.BandwidthMbps
			if u > utilCap {
				u = utilCap
			}
			total += transmitMs(payloadKB, l.BandwidthMbps) / (1 - u)
		}
	}
	return total
}

// congestionResult prices every flow's path under the committed per-link
// loads and lists each loaded link in ascending (a, b) order with its
// utilization, adding it to Overloaded once the load meets its bandwidth.
func congestionResult(g *Graph, flows []Flow, paths [][]NodeID, load map[linkKey]float64) *CongestionResult {
	res := &CongestionResult{DelayMs: make([]float64, len(flows))}
	for k, f := range flows {
		res.DelayMs[k] = g.effectiveDelay(paths[k], f.PayloadKB, load)
	}
	keys := make([]linkKey, 0, len(load))
	for k := range load {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y linkKey) int { return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b)) })
	for _, key := range keys {
		l, _ := g.LinkBetween(key.a, key.b)
		mbps, util := load[key], 0.0
		if l.BandwidthMbps > 0 {
			util = mbps / l.BandwidthMbps
		}
		res.Links = append(res.Links, LinkLoad{Link: l, Mbps: mbps, Utilization: util})
		if l.BandwidthMbps > 0 && util >= 1 {
			res.Overloaded = append(res.Overloaded, l)
		}
	}
	return res
}
