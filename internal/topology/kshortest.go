package topology

import (
	"fmt"
	"slices"
	"sort"
)

// route is a loopless path with its total cost.
type route struct {
	nodes []NodeID
	cost  float64
}

// kShortest returns up to k loopless paths from src to dst in increasing
// cost order, using Yen's algorithm on the whole compact graph c. Fewer
// than k paths are returned when the graph does not contain that many
// distinct loopless paths, and none when dst is unreachable. Multipath
// (ECMP-style) traffic spreading builds on this.
func (c *coreGraph) kShortest(src, dst NodeID, k int) ([]route, error) {
	prev := make([]int, len(c.ids))
	dist, err := c.shortest(c.index[src], -1, nil, prev)
	if err != nil {
		return nil, err
	}
	first := c.pathTo(spTree{dist, prev}, dst)
	if first == nil {
		return nil, nil // unreachable: no paths at all
	}
	paths := []route{{nodes: first, cost: dist[c.index[dst]]}}
	var candidates []route

	for len(paths) < k {
		last := paths[len(paths)-1].nodes
		// Each node of the previous path (except the last) is a spur; the
		// root's cost is folded one link further per spur.
		rootCost := 0.0
		for spurIdx := 0; spurIdx < len(last)-1; spurIdx++ {
			spur := last[spurIdx]
			root := last[:spurIdx+1]
			if spurIdx > 0 {
				rootCost += c.linkCost(last[spurIdx-1], spur)
			}
			// Ban edges that would reproduce an already-known path
			// with this root, and ban revisiting root nodes.
			bannedEdges := map[[2]NodeID]bool{}
			for _, p := range paths {
				if len(p.nodes) > spurIdx && slices.Equal(p.nodes[:spurIdx+1], root) {
					a, b := p.nodes[spurIdx], p.nodes[spurIdx+1]
					bannedEdges[[2]NodeID{a, b}] = true
					bannedEdges[[2]NodeID{b, a}] = true
				}
			}
			bannedNodes := map[NodeID]bool{}
			for _, nid := range root[:len(root)-1] {
				bannedNodes[nid] = true
			}
			skip := func(u, v int) bool {
				return bannedNodes[c.ids[v]] || bannedEdges[[2]NodeID{c.ids[u], c.ids[v]}]
			}
			dist, err := c.shortest(c.index[spur], c.index[dst], skip, prev)
			if err != nil {
				return nil, err
			}
			spurPath := c.pathTo(spTree{dist, prev}, dst)
			if spurPath == nil {
				continue
			}
			total := append(append([]NodeID{}, root[:len(root)-1]...), spurPath...)
			cand := route{nodes: total, cost: rootCost + dist[c.index[dst]]}
			dup := false
			for _, p := range candidates {
				if slices.Equal(p.nodes, cand.nodes) {
					dup = true
					break
				}
			}
			for _, p := range paths {
				if slices.Equal(p.nodes, cand.nodes) {
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
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].cost < candidates[b].cost })
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// linkCost returns the cost of the link from node a to node b; a path
// the search returned links each node to the next.
func (c *coreGraph) linkCost(a, b NodeID) float64 {
	u, v := c.index[a], c.index[b]
	for e := c.start[u]; e < c.start[u+1]; e++ {
		if c.to[e] == v {
			return c.cost[e]
		}
	}
	panic(fmt.Sprintf("topology: no link %d-%d", a, b))
}
