package topology

import "sort"

// CutVertices returns the graph's articulation points — nodes whose
// failure disconnects some pair of currently-connected nodes — via
// Tarjan's low-link algorithm, in ascending ID order. In an edge
// deployment these are the single points of failure between IoT devices
// and their edge servers.
func (g *Graph) CutVertices() []NodeID {
	n := len(g.nodes)
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]NodeID, n)
	isCut := make([]bool, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0

	// Iterative DFS to avoid recursion depth limits on long paths.
	type frame struct {
		u        NodeID
		childIdx int
		children int
	}
	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		stack := []frame{{u: NodeID(start)}}
		disc[start] = timer
		low[start] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			adj := g.adj[f.u]
			if f.childIdx < len(adj) {
				v := adj[f.childIdx].to
				f.childIdx++
				if disc[v] == -1 {
					parent[v] = f.u
					f.children++
					disc[v] = timer
					low[v] = timer
					timer++
					stack = append(stack, frame{u: v})
				} else if v != parent[f.u] && disc[v] < low[f.u] {
					low[f.u] = disc[v]
				}
				continue
			}
			// Post-order: fold into parent.
			stack = stack[:len(stack)-1]
			if p := parent[f.u]; p != -1 {
				if low[f.u] < low[p] {
					low[p] = low[f.u]
				}
				if parent[p] != -1 && low[f.u] >= disc[p] {
					isCut[p] = true
				}
			}
			// Root rule.
			if parent[f.u] == -1 && f.children > 1 {
				isCut[f.u] = true
			}
		}
	}
	var out []NodeID
	for i, c := range isCut {
		if c {
			out = append(out, NodeID(i))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ResilienceReport quantifies how exposed IoT-to-edge connectivity is to
// single-node infrastructure failures.
type ResilienceReport struct {
	// CutVertices lists articulation points among infrastructure nodes
	// (gateways/routers; IoT and edge endpoints excluded — losing the
	// endpoint itself is not a routing failure).
	CutVertices []NodeID
	// WorstCaseStranded is the largest number of IoT devices that lose
	// connectivity to every edge server when one infrastructure cut
	// vertex fails.
	WorstCaseStranded int
	// WorstVertex is the infrastructure node achieving that maximum, or
	// -1 when no failure strands anyone.
	WorstVertex NodeID
}

// Resilience evaluates single-node infrastructure failures: for every cut
// vertex that is a gateway or router, it simulates the node's removal and
// counts IoT devices left with no path to any edge server.
func (g *Graph) Resilience() ResilienceReport {
	rep := ResilienceReport{WorstVertex: -1}
	iot := g.NodesOfKind(KindIoT)
	edges := g.NodesOfKind(KindEdge)
	for _, cv := range g.CutVertices() {
		kind := g.Node(cv).Kind
		if kind != KindGateway && kind != KindRouter {
			continue
		}
		rep.CutVertices = append(rep.CutVertices, cv)
		stranded := g.strandedWithout(cv, iot, edges)
		if stranded > rep.WorstCaseStranded {
			rep.WorstCaseStranded = stranded
			rep.WorstVertex = cv
		}
	}
	return rep
}

// strandedWithout counts IoT devices with no path to any edge when banned
// is removed (BFS from all edges simultaneously, skipping banned).
func (g *Graph) strandedWithout(banned NodeID, iot, edges []NodeID) int {
	hops := g.hops(edges, banned)
	stranded := 0
	for _, d := range iot {
		if hops[d] < 0 {
			stranded++
		}
	}
	return stranded
}
