package topology

import (
	"fmt"
	"math"
	"slices"

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
		return l.LatencyMs + transmitMs(payloadKB, l.BandwidthMbps)
	}
}

// transmitMs is the time to send payloadKB kilobytes at bandwidthMbps:
// kB -> bits = *8*1000; Mbit/s -> bits/ms = *1000. A bandwidth that is
// not positive (unspecified, or NaN) adds nothing.
func transmitMs(payloadKB, bandwidthMbps float64) float64 {
	if !(bandwidthMbps > 0) {
		return 0
	}
	return payloadKB * 8 * 1000 / (bandwidthMbps * 1000)
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

// HopCounts returns the minimum hop count from src to every node via BFS,
// with -1 marking unreachable nodes.
func (g *Graph) HopCounts(src NodeID) []int {
	if !g.valid(src) {
		panic(fmt.Sprintf("topology: HopCounts source %d out of range", src))
	}
	return g.hops([]NodeID{src}, -1)
}

// hops is a breadth-first search from every node of srcs at once that
// never enters banned (-1 bans nothing): it returns each node's hop count
// to its nearest source, -1 where none is reachable. Hop counts are
// symmetric, so hops(srcs) is also each node's hop count to its nearest
// node of srcs.
func (g *Graph) hops(srcs []NodeID, banned NodeID) []int {
	hops := make([]int, len(g.nodes))
	for i := range hops {
		hops[i] = -1
	}
	queue := make([]NodeID, 0, len(g.nodes))
	for _, s := range srcs {
		if s != banned && hops[s] < 0 {
			hops[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, h := range g.adj[u] {
			if h.to != banned && hops[h.to] < 0 {
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
//
// A negative cost panics on the caller's goroutine, with the message a
// sequential build gives: the lowest edge source's first negative core
// link, then the first negative access link in row order.
func NewDelayMatrixTraced(g *Graph, cost LinkCost, workers int, phase *obs.Phase) *DelayMatrix {
	iot := g.NodesOfKind(KindIoT)
	edge := g.NodesOfKind(KindEdge)
	c := newCoreGraph(g, cost, true)
	// coreDist[v*k+j] is the distance from edge j to core node v; each
	// source writes only its own column and its own slot of neg.
	k := len(edge)
	coreDist := make([]float64, len(c.ids)*k)
	neg := make([]error, k)
	var now func() float64
	if phase != nil {
		now = phase.NowMs
	}
	shards := par.ForShards(par.Workers(workers), k, now, func(j int) {
		dist, err := c.shortest(c.index[edge[j]], -1, nil, nil)
		if err != nil {
			neg[j] = err
			return
		}
		for v, d := range dist {
			coreDist[v*k+j] = d
		}
	})
	for _, err := range neg {
		if err != nil {
			panic(err.Error())
		}
	}
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
		panic(negativeCost(cf, h.to, d).Error())
	}
	if cb := cost(Link{A: d, B: h.to, LatencyMs: h.latencyMs, BandwidthMbps: h.bwMbps}); cb < 0 && reached(cf) {
		panic(negativeCost(cb, d, h.to).Error())
	}
}

// negativeCost is the error for a negative cost c on the link from a to b.
func negativeCost(c float64, a, b NodeID) error {
	return fmt.Errorf("topology: negative link cost %v on %d-%d", c, a, b)
}

// pendant reports whether v is an IoT device whose only link goes to a
// non-IoT node: the wireless hop every generator gives a device.
func (g *Graph) pendant(v NodeID) bool {
	return g.nodes[v].Kind == KindIoT && len(g.adj[v]) == 1 && g.nodes[g.adj[v][0].to].Kind != KindIoT
}

// coreGraph is a graph in compact form, with every directed link's cost
// evaluated once, on which every shortest-path search runs. Contracted,
// it leaves out the pendant devices (the delay matrix's core); whole, it
// keeps every node, and core index and node ID coincide.
type coreGraph struct {
	// index maps a node ID to its core index (-1 for a pendant device),
	// ids maps a core index back to its node ID.
	index []int
	ids   []NodeID
	// The links out of core node u go to to[start[u]:start[u+1]], in the
	// graph's adjacency order, at the costs in the same positions of cost.
	start []int
	to    []int
	cost  []float64
}

func newCoreGraph(g *Graph, cost LinkCost, contract bool) *coreGraph {
	c := &coreGraph{index: make([]int, len(g.nodes))}
	for v := range g.nodes {
		c.index[v] = -1
		if !contract || !g.pendant(NodeID(v)) {
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

// shortest is the package's one Dijkstra. It returns the distance from
// core node src to every core node (+Inf when unreached), stopping once
// dst is settled (-1 never stops early). It never relaxes a link from u to
// v that skip rejects (nil rejects none). When prev is non-nil it records
// each node's predecessor there, -1 for src and unreached nodes. The
// first negative cost it would relax ends the search with that link's
// error.
//
// The queue is the typed heap, links are relaxed in adjacency order and
// each distance is the left-folded sum of its path's costs, so every
// distance and predecessor has the same bits as container/heap's Dijkstra
// over the Graph itself.
func (c *coreGraph) shortest(src, dst int, skip func(u, v int) bool, prev []int) ([]float64, error) {
	dist := make([]float64, len(c.ids))
	for i := range dist {
		dist[i] = Infinity
	}
	for i := range prev {
		prev[i] = -1
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
		if u == dst {
			break
		}
		for e := c.start[u]; e < c.start[u+1]; e++ {
			v, w := c.to[e], c.cost[e]
			if skip != nil && skip(u, v) {
				continue
			}
			if w < 0 {
				return nil, negativeCost(w, c.ids[u], c.ids[v])
			}
			if nd := item.dist + w; nd < dist[v] {
				dist[v] = nd
				if prev != nil {
					prev[v] = u
				}
				q.push(pqItem{node: NodeID(v), dist: nd})
			}
		}
	}
	return dist, nil
}

// spTree is a search's distances and the predecessors it recorded.
type spTree struct {
	dist []float64
	prev []int
}

// pathTo returns the node IDs on t's path from its source to node v,
// inclusive, or nil when v is not a reached core node.
func (c *coreGraph) pathTo(t spTree, v NodeID) []NodeID {
	if v < 0 || int(v) >= len(c.index) || c.index[v] < 0 || math.IsInf(t.dist[c.index[v]], 1) {
		return nil
	}
	var path []NodeID
	for u := c.index[v]; u != -1; u = t.prev[u] {
		path = append(path, c.ids[u])
	}
	slices.Reverse(path)
	return path
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
