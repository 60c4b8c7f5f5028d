package topology

import (
	"fmt"
	"math"
	"sort"
)

// Path is a node sequence with its total cost.
type Path struct {
	Nodes []NodeID
	Cost  float64
}

// equalPath reports whether two node sequences are identical.
func equalPath(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// KShortestPaths returns up to k loopless paths from src to dst in
// increasing cost order, using Yen's algorithm. Fewer than k paths are
// returned when the graph does not contain that many distinct loopless
// paths. Multipath (ECMP-style) traffic spreading and failure-resilient
// routing both build on this.
func (g *Graph) KShortestPaths(src, dst NodeID, k int, cost LinkCost) ([]Path, error) {
	if !g.valid(src) || !g.valid(dst) {
		return nil, fmt.Errorf("topology: k-shortest endpoints %d-%d out of range", src, dst)
	}
	if k <= 0 {
		return nil, fmt.Errorf("topology: k must be positive, got %d", k)
	}
	sp := g.Dijkstra(src, cost)
	first := sp.PathTo(dst)
	if first == nil {
		return nil, nil // unreachable: no paths at all
	}
	paths := []Path{{Nodes: first, Cost: sp.Dist[dst]}}
	var candidates []Path

	for len(paths) < k {
		prev := paths[len(paths)-1].Nodes
		// Each node of the previous path (except the last) is a spur.
		for spurIdx := 0; spurIdx < len(prev)-1; spurIdx++ {
			spur := prev[spurIdx]
			root := prev[:spurIdx+1]
			rootCost := pathCost(g, root, cost)
			// Ban edges that would reproduce an already-known path
			// with this root, and ban revisiting root nodes.
			bannedEdges := map[[2]NodeID]bool{}
			for _, p := range paths {
				if len(p.Nodes) > spurIdx && equalPath(p.Nodes[:spurIdx+1], root) {
					a, b := p.Nodes[spurIdx], p.Nodes[spurIdx+1]
					bannedEdges[[2]NodeID{a, b}] = true
					bannedEdges[[2]NodeID{b, a}] = true
				}
			}
			bannedNodes := map[NodeID]bool{}
			for _, nid := range root[:len(root)-1] {
				bannedNodes[nid] = true
			}
			spurPath, spurCost := g.constrainedShortest(spur, dst, cost, bannedEdges, bannedNodes)
			if spurPath == nil {
				continue
			}
			total := append(append([]NodeID{}, root[:len(root)-1]...), spurPath...)
			cand := Path{Nodes: total, Cost: rootCost + spurCost}
			dup := false
			for _, c := range candidates {
				if equalPath(c.Nodes, cand.Nodes) {
					dup = true
					break
				}
			}
			for _, p := range paths {
				if equalPath(p.Nodes, cand.Nodes) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].Cost < candidates[b].Cost })
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// pathCost sums the link costs along a node sequence.
func pathCost(g *Graph, nodes []NodeID, cost LinkCost) float64 {
	total := 0.0
	for i := 0; i+1 < len(nodes); i++ {
		l, ok := g.LinkBetween(nodes[i], nodes[i+1])
		if !ok {
			return math.Inf(1)
		}
		total += cost(l)
	}
	return total
}

// constrainedShortest is Dijkstra from src to dst avoiding banned edges and
// nodes. Returns (nil, +Inf) when no path exists.
func (g *Graph) constrainedShortest(src, dst NodeID, cost LinkCost, bannedEdges map[[2]NodeID]bool, bannedNodes map[NodeID]bool) ([]NodeID, float64) {
	n := len(g.nodes)
	dist := make([]float64, n)
	prevN := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevN[i] = -1
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
		if u == dst {
			break
		}
		for _, h := range g.adj[u] {
			if bannedNodes[h.to] || bannedEdges[[2]NodeID{u, h.to}] {
				continue
			}
			c := cost(Link{A: u, B: h.to, LatencyMs: h.latencyMs, BandwidthMbps: h.bwMbps})
			if nd := item.dist + c; nd < dist[h.to] {
				dist[h.to] = nd
				prevN[h.to] = u
				q.push(pqItem{node: h.to, dist: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1)
	}
	var rev []NodeID
	for u := dst; u != -1; u = prevN[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, dist[dst]
}
