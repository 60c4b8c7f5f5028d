package topology

import (
	"fmt"
	"math"
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
	if len(flows) != len(assignment) {
		return nil, fmt.Errorf("topology: %d flows but %d assignments", len(flows), len(assignment))
	}
	// Shortest-path trees from each used edge node.
	trees := make(map[int]*ShortestPaths)
	for _, col := range assignment {
		if col < 0 || col >= len(dm.Edge) {
			return nil, fmt.Errorf("topology: assignment column %d out of range", col)
		}
		if _, ok := trees[col]; !ok {
			trees[col] = g.Dijkstra(dm.Edge[col], LatencyCost)
		}
	}
	// Accumulate per-link load walking each flow's path.
	load := make(map[linkKey]float64)
	paths := make([][]NodeID, len(flows))
	for k, f := range flows {
		sp := trees[assignment[k]]
		path := sp.PathTo(f.IoT)
		if path == nil {
			return nil, fmt.Errorf("topology: flow %d cannot reach edge column %d", k, assignment[k])
		}
		paths[k] = path
		mbps := f.Mbps()
		for h := 0; h+1 < len(path); h++ {
			load[normKey(path[h], path[h+1])] += mbps
		}
	}
	res := &CongestionResult{DelayMs: make([]float64, len(flows))}
	utils := make(map[linkKey]float64, len(load))
	for _, key := range sortedLinkKeys(load) {
		mbps := load[key]
		l, ok := g.LinkBetween(key.a, key.b)
		if !ok {
			return nil, fmt.Errorf("topology: internal error: path uses missing link %d-%d", key.a, key.b)
		}
		util := 0.0
		if l.BandwidthMbps > 0 {
			util = mbps / l.BandwidthMbps
		}
		utils[key] = util
		res.Links = append(res.Links, LinkLoad{Link: l, Mbps: mbps, Utilization: util})
		if l.BandwidthMbps > 0 && util >= 1 {
			res.Overloaded = append(res.Overloaded, l)
		}
	}
	// Effective per-flow delays.
	for k, f := range flows {
		path := paths[k]
		total := 0.0
		for h := 0; h+1 < len(path); h++ {
			l, _ := g.LinkBetween(path[h], path[h+1])
			total += l.LatencyMs
			if l.BandwidthMbps > 0 {
				bits := f.PayloadKB * 8 * 1000
				tx := bits / (l.BandwidthMbps * 1000)
				u := utils[normKey(path[h], path[h+1])]
				if u > utilCap {
					u = utilCap
				}
				total += tx / (1 - u)
			}
		}
		res.DelayMs[k] = total
	}
	return res, nil
}

// CongestionAwareDelayMatrix rebuilds an IoT-by-edge delay matrix whose
// entries include the queueing inflation the *current* assignment induces:
// entry (i, j) is the effective delay device i would see on edge j given
// everyone else's traffic stays put. Iterating assignment and matrix
// refresh a few rounds yields congestion-aware configurations (see
// experiment F9).
func CongestionAwareDelayMatrix(g *Graph, dm *DelayMatrix, flows []Flow, assignment []int) (*DelayMatrix, error) {
	if len(flows) != len(assignment) {
		return nil, fmt.Errorf("topology: %d flows but %d assignments", len(flows), len(assignment))
	}
	// Current per-link utilization from the standing assignment.
	cur, err := EvaluateCongestion(g, dm, flows, assignment)
	if err != nil {
		return nil, err
	}
	utils := make(map[linkKey]float64, len(cur.Links))
	for _, ll := range cur.Links {
		utils[normKey(ll.Link.A, ll.Link.B)] = ll.Utilization
	}
	out := newDelayMatrix(append([]NodeID(nil), dm.IoT...), append([]NodeID(nil), dm.Edge...))
	// Shortest-path trees from every edge (latency cost, matching the
	// routing EvaluateCongestion uses).
	trees := make([]*ShortestPaths, len(dm.Edge))
	for j, e := range dm.Edge {
		trees[j] = g.Dijkstra(e, LatencyCost)
	}
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
			path := trees[j].PathTo(f.IoT)
			if path == nil {
				out.DelayMs[i][j] = math.Inf(1)
				continue
			}
			total := 0.0
			for h := 0; h+1 < len(path); h++ {
				l, _ := g.LinkBetween(path[h], path[h+1])
				total += l.LatencyMs
				if l.BandwidthMbps > 0 {
					bits := f.PayloadKB * 8 * 1000
					tx := bits / (l.BandwidthMbps * 1000)
					u := utils[normKey(path[h], path[h+1])]
					if u > utilCap {
						u = utilCap
					}
					total += tx / (1 - u)
				}
			}
			out.DelayMs[i][j] = total
		}
	}
	return out, nil
}
