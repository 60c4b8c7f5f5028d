package topology

import (
	"fmt"
	"math"

	"taccc/internal/obs"
	"taccc/internal/par"
)

// Infinity marks unreachable pairs in distance results.
var Infinity = math.Inf(1)

// LinkCost maps a link to a non-negative traversal cost. It is the knob
// that makes path computation payload-aware: propagation-only, or
// propagation plus transmission for a given message size.
type LinkCost func(l Link) float64

// LatencyCost returns each link's configured latency; transmission time is
// ignored. This is the cost used for small control messages.
func LatencyCost(l Link) float64 { return l.LatencyMs }

// PayloadCost returns a cost model combining propagation latency and the
// transmission time of a payload of the given size (kilobytes) at the
// link's bandwidth. Links with unspecified bandwidth contribute no
// transmission time.
func PayloadCost(payloadKB float64) LinkCost {
	return func(l Link) float64 {
		d := l.LatencyMs
		if l.BandwidthMbps > 0 {
			// kB -> bits = *8*1000; Mbit/s -> bits/ms = *1000.
			bits := payloadKB * 8 * 1000
			d += bits / (l.BandwidthMbps * 1000)
		}
		return d
	}
}

// pqItem is a Dijkstra priority-queue entry.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap of queue items by dist. push and pop sift
// exactly as container/heap's Push and Pop do, so items of equal distance
// leave in the same order and every shortest-path result keeps its bits,
// without boxing each item in an interface.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// ShortestPaths holds single-source shortest-path results.
type ShortestPaths struct {
	Source NodeID
	// Dist[v] is the cost of the cheapest path from Source to v, or
	// Infinity if unreachable.
	Dist []float64
	// Prev[v] is the predecessor of v on that path, or -1 for the source
	// and unreachable nodes.
	Prev []NodeID
}

// PathTo reconstructs the node sequence from the source to v, inclusive.
// It returns nil if v is unreachable.
func (sp *ShortestPaths) PathTo(v NodeID) []NodeID {
	if int(v) >= len(sp.Dist) || math.IsInf(sp.Dist[v], 1) {
		return nil
	}
	var rev []NodeID
	for u := v; u != -1; u = sp.Prev[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Dijkstra computes single-source shortest paths from src under the given
// cost model. Costs must be non-negative; a negative cost causes a panic.
func (g *Graph) Dijkstra(src NodeID, cost LinkCost) *ShortestPaths {
	if !g.valid(src) {
		panic(fmt.Sprintf("topology: Dijkstra source %d out of range", src))
	}
	n := len(g.nodes)
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Infinity
		prev[i] = -1
	}
	dist[src] = 0
	q := pq{{node: src, dist: 0}}
	for len(q) > 0 {
		item := q.pop()
		u := item.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, h := range g.adj[u] {
			c := cost(Link{A: u, B: h.to, LatencyMs: h.latencyMs, BandwidthMbps: h.bwMbps})
			if c < 0 {
				panic(fmt.Sprintf("topology: negative link cost %v on %d-%d", c, u, h.to))
			}
			if nd := item.dist + c; nd < dist[h.to] {
				dist[h.to] = nd
				prev[h.to] = u
				q.push(pqItem{node: h.to, dist: nd})
			}
		}
	}
	return &ShortestPaths{Source: src, Dist: dist, Prev: prev}
}

// HopCounts returns the minimum hop count from src to every node via BFS,
// with -1 marking unreachable nodes.
func (g *Graph) HopCounts(src NodeID) []int {
	if !g.valid(src) {
		panic(fmt.Sprintf("topology: HopCounts source %d out of range", src))
	}
	hops := make([]int, len(g.nodes))
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[u] {
			if hops[h.to] == -1 {
				hops[h.to] = hops[u] + 1
				queue = append(queue, h.to)
			}
		}
	}
	return hops
}

// DelayMatrix is the IoT-by-edge communication-delay matrix derived from a
// topology; it is the bridge between the network substrate and the GAP
// formulation.
type DelayMatrix struct {
	// IoT and Edge list the node IDs backing each row/column.
	IoT  []NodeID
	Edge []NodeID
	// DelayMs[i][j] is the delay from IoT[i] to Edge[j], Infinity if
	// disconnected.
	DelayMs [][]float64
	// store is the row-major array whose rows DelayMs views when this
	// package built the matrix, entry (i, j) at i*NumEdge()+j; nil for a
	// hand-built matrix.
	store []float64
}

// newDelayMatrix returns a matrix over the given rows and columns whose
// DelayMs rows are zeroed views of one row-major store.
func newDelayMatrix(iot, edge []NodeID) *DelayMatrix {
	n, k := len(iot), len(edge)
	dm := &DelayMatrix{IoT: iot, Edge: edge, DelayMs: make([][]float64, n), store: make([]float64, n*k)}
	for i := range dm.DelayMs {
		dm.DelayMs[i] = dm.store[i*k : (i+1)*k : (i+1)*k]
	}
	return dm
}

// Store returns the row-major array behind DelayMs, entry (i, j) at
// i*NumEdge()+j, when every row is still the view this package's
// constructor made of it; writes through either reach the other. It
// returns nil for a hand-built matrix, for an empty one, and once a row
// has been replaced or resliced.
func (dm *DelayMatrix) Store() []float64 {
	k := len(dm.Edge)
	if len(dm.store) == 0 || len(dm.IoT) != len(dm.DelayMs) || len(dm.store) != len(dm.DelayMs)*k {
		return nil
	}
	for i, row := range dm.DelayMs {
		if len(row) != k || &row[0] != &dm.store[i*k] {
			return nil
		}
	}
	return dm.store
}

// NewDelayMatrix computes shortest-path delays from every IoT node to every
// edge node under the given cost model, with edge sources fanned out
// across all cores. Use NewDelayMatrixWorkers to bound the parallelism.
func NewDelayMatrix(g *Graph, cost LinkCost) *DelayMatrix {
	return NewDelayMatrixTraced(g, cost, 0, nil)
}

// NewDelayMatrixWorkers is NewDelayMatrix with an explicit worker count
// (<= 0 means all cores, 1 is fully sequential). The matrix is identical
// for every worker count.
func NewDelayMatrixWorkers(g *Graph, cost LinkCost, workers int) *DelayMatrix {
	return NewDelayMatrixTraced(g, cost, workers, nil)
}

// NewDelayMatrixTraced is NewDelayMatrixWorkers with wall-clock tracing:
// when phase is a live obs phase (the "delay-matrix" span of a pipeline
// trace), each worker's shard of edge sources is emitted as a child span
// named "shard" with worker ID, items processed and busy time, giving
// Perfetto one timeline row per worker. A nil phase means no clock reads
// and no spans; the matrix is bit-identical either way.
//
// Dijkstra runs from each edge node (one work item per edge) over the
// graph's core: every node except the pendant IoT devices, those with
// exactly one link, to a non-IoT node. Each pendant device's row is then
// filled as dist(edge, gateway) + cost(gateway→device), kept only when it
// is below +Inf. That is exactly what a full Dijkstra computes: a pendant
// vertex lies on no other node's shortest path, and Dijkstra settles it
// with that same single relaxation. Devices with several links, or linked
// to another device, stay in the core. The rows are filled on the same
// workers, each writing only its own row.
func NewDelayMatrixTraced(g *Graph, cost LinkCost, workers int, phase *obs.Phase) *DelayMatrix {
	iot := g.NodesOfKind(KindIoT)
	edge := g.NodesOfKind(KindEdge)
	c := newCoreGraph(g, cost)
	// coreDist[v*k+j] is the distance from edge j to core node v; each
	// source writes only its own column.
	k := len(edge)
	coreDist := make([]float64, len(c.ids)*k)
	var now func() float64
	if phase != nil {
		now = phase.NowMs
	}
	shards := par.ForShards(par.Workers(workers), k, now, func(j int) {
		for v, d := range c.dijkstra(c.index[edge[j]]) {
			coreDist[v*k+j] = d
		}
	})
	for _, sh := range shards {
		phase.Span("shard", sh.StartMs, sh.EndMs, map[string]interface{}{
			"worker":  sh.Worker,
			"items":   sh.Items,
			"busy_ms": sh.BusyMs,
		})
	}
	// Every pendant check runs first, sequentially and in row order, so a
	// negative cost panics on the caller's goroutine with the message a
	// row-order fill would raise. The checks keep each pendant's link
	// cost, and the fill, which calls no LinkCost, runs in parallel.
	access := make([]float64, len(iot))
	for i, d := range iot {
		if c.index[d] >= 0 {
			continue
		}
		h := g.adj[d][0]
		gw := c.index[h.to]
		access[i] = cost(Link{A: h.to, B: d, LatencyMs: h.latencyMs, BandwidthMbps: h.bwMbps})
		checkPendantCosts(cost, d, h, access[i], coreDist[gw*k:(gw+1)*k])
	}
	dm := newDelayMatrix(iot, edge)
	par.For(par.Workers(workers), len(iot), func(i int) {
		row, d := dm.DelayMs[i], iot[i]
		if v := c.index[d]; v >= 0 {
			copy(row, coreDist[v*k:(v+1)*k])
			return
		}
		gw := c.index[g.adj[d][0].to]
		cf := access[i]
		for j, b := range coreDist[gw*k : (gw+1)*k] {
			row[j] = Infinity
			if nd := b + cf; nd < Infinity {
				row[j] = nd
			}
		}
	})
	return dm
}

// checkPendantCosts panics wherever a full Dijkstra would on pendant
// device d's only link h, to its gateway: on a negative cost cf out of
// the gateway once some edge reaches the gateway (base holds its
// distances), and on a negative cost back out of d once some edge reaches
// d, that is once some base+cf is below +Inf, the row the fill writes.
func checkPendantCosts(cost LinkCost, d NodeID, h halfLink, cf float64, base []float64) {
	reached := func(add float64) bool {
		for _, b := range base {
			if b+add < Infinity {
				return true
			}
		}
		return false
	}
	if cf < 0 && reached(0) {
		panic(fmt.Sprintf("topology: negative link cost %v on %d-%d", cf, h.to, d))
	}
	if cb := cost(Link{A: d, B: h.to, LatencyMs: h.latencyMs, BandwidthMbps: h.bwMbps}); cb < 0 && reached(cf) {
		panic(fmt.Sprintf("topology: negative link cost %v on %d-%d", cb, d, h.to))
	}
}

// pendant reports whether v is an IoT device whose only link goes to a
// non-IoT node: the wireless hop every generator gives a device.
func (g *Graph) pendant(v NodeID) bool {
	return g.nodes[v].Kind == KindIoT && len(g.adj[v]) == 1 && g.nodes[g.adj[v][0].to].Kind != KindIoT
}

// coreGraph is a graph without its pendant devices, in compact form, with
// every directed link's cost evaluated once.
type coreGraph struct {
	// index maps a node ID to its core index (-1 for a pendant device),
	// ids maps a core index back to its node ID.
	index []int
	ids   []NodeID
	// The links out of core node u go to to[start[u]:start[u+1]], at the
	// costs in the same positions of cost.
	start []int
	to    []int
	cost  []float64
}

func newCoreGraph(g *Graph, cost LinkCost) *coreGraph {
	c := &coreGraph{index: make([]int, len(g.nodes))}
	for v := range g.nodes {
		c.index[v] = -1
		if !g.pendant(NodeID(v)) {
			c.index[v] = len(c.ids)
			c.ids = append(c.ids, NodeID(v))
		}
	}
	c.start = make([]int, len(c.ids)+1)
	for u, id := range c.ids {
		for _, h := range g.adj[id] {
			if v := c.index[h.to]; v >= 0 {
				c.to = append(c.to, v)
				c.cost = append(c.cost, cost(Link{A: id, B: h.to, LatencyMs: h.latencyMs, BandwidthMbps: h.bwMbps}))
			}
		}
		c.start[u+1] = len(c.to)
	}
	return c
}

// dijkstra returns the distance from core node src to every core node. It
// relaxes exactly as Graph.Dijkstra does (its queue items carry core
// indices), so each distance has the same bits.
func (c *coreGraph) dijkstra(src int) []float64 {
	dist := make([]float64, len(c.ids))
	for i := range dist {
		dist[i] = Infinity
	}
	done := make([]bool, len(c.ids))
	dist[src] = 0
	q := pq{{node: NodeID(src), dist: 0}}
	for len(q) > 0 {
		item := q.pop()
		u := int(item.node)
		if done[u] {
			continue
		}
		done[u] = true
		for e := c.start[u]; e < c.start[u+1]; e++ {
			v, w := c.to[e], c.cost[e]
			if w < 0 {
				panic(fmt.Sprintf("topology: negative link cost %v on %d-%d", w, c.ids[u], c.ids[v]))
			}
			if nd := item.dist + w; nd < dist[v] {
				dist[v] = nd
				q.push(pqItem{node: NodeID(v), dist: nd})
			}
		}
	}
	return dist
}

// NumIoT returns the number of IoT rows.
func (dm *DelayMatrix) NumIoT() int { return len(dm.IoT) }

// NumEdge returns the number of edge columns.
func (dm *DelayMatrix) NumEdge() int { return len(dm.Edge) }

// MinDelay returns the smallest delay in row i and the column achieving it.
// It panics for an out-of-range row and returns (Infinity, -1) when the row
// is fully disconnected.
func (dm *DelayMatrix) MinDelay(i int) (float64, int) {
	if i < 0 || i >= len(dm.DelayMs) {
		panic(fmt.Sprintf("topology: MinDelay row %d out of range", i))
	}
	best, bestJ := Infinity, -1
	for j, d := range dm.DelayMs[i] {
		if d < best {
			best, bestJ = d, j
		}
	}
	return best, bestJ
}
