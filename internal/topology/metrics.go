package topology

import "math"

// Metrics summarizes a topology's shape; tacgen -stats prints them so
// generated families can be characterized and compared.
type Metrics struct {
	// Nodes and Links count the graph elements.
	Nodes int
	Links int
	// ByKind counts nodes per role.
	ByKind map[NodeKind]int
	// AvgDegree is the mean node degree.
	AvgDegree float64
	// MaxDegree is the largest node degree.
	MaxDegree int
	// DiameterHops is the longest shortest path in hops over the whole
	// graph (-1 if disconnected).
	DiameterHops int
	// AvgIoTMinDelayMs and MaxIoTMinDelayMs summarize each IoT device's
	// delay to its *nearest* edge server (the floor any assignment can
	// reach).
	AvgIoTMinDelayMs float64
	MaxIoTMinDelayMs float64
	// AvgIoTEdgeHops is the mean hop count from IoT devices to their
	// nearest edge server.
	AvgIoTEdgeHops float64
}

// ComputeMetrics walks the graph; cost O(V·E) from the per-node BFS of
// the hop diameter.
func ComputeMetrics(g *Graph) Metrics {
	m := Metrics{
		Nodes:  g.NumNodes(),
		Links:  g.NumLinks(),
		ByKind: make(map[NodeKind]int),
	}
	for _, n := range g.Nodes() {
		m.ByKind[n.Kind]++
		d := g.Degree(n.ID)
		m.AvgDegree += float64(d)
		if d > m.MaxDegree {
			m.MaxDegree = d
		}
	}
	if m.Nodes > 0 {
		m.AvgDegree /= float64(m.Nodes)
	}
	// Hop diameter.
	m.DiameterHops = 0
	for v := 0; v < m.Nodes; v++ {
		hops := g.HopCounts(NodeID(v))
		for _, h := range hops {
			if h < 0 {
				m.DiameterHops = -1
				break
			}
			if h > m.DiameterHops {
				m.DiameterHops = h
			}
		}
		if m.DiameterHops < 0 {
			break
		}
	}
	// IoT-to-nearest-edge stats.
	iot := g.NodesOfKind(KindIoT)
	edges := g.NodesOfKind(KindEdge)
	if len(iot) == 0 || len(edges) == 0 {
		return m
	}
	dm := NewDelayMatrix(g, LatencyCost)
	// Each device's hop count to its nearest edge, from one search
	// started at every edge.
	edgeHops := g.hops(edges, -1)
	sumDelay, sumHops := 0.0, 0.0
	counted := 0
	for i := range dm.IoT {
		d, j := dm.MinDelay(i)
		if j < 0 || math.IsInf(d, 1) {
			continue
		}
		counted++
		sumDelay += d
		if d > m.MaxIoTMinDelayMs {
			m.MaxIoTMinDelayMs = d
		}
		if h := edgeHops[dm.IoT[i]]; h >= 0 {
			sumHops += float64(h)
		}
	}
	if counted > 0 {
		m.AvgIoTMinDelayMs = sumDelay / float64(counted)
		m.AvgIoTEdgeHops = sumHops / float64(counted)
	}
	return m
}
