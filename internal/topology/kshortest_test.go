package topology

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// kShortestPaths runs Yen's algorithm from src to dst over the whole
// graph under cost.
func kShortestPaths(g *Graph, src, dst NodeID, k int, cost LinkCost) []route {
	paths, err := newCoreGraph(g, cost, false).kShortest(src, dst, k)
	if err != nil {
		panic(err.Error())
	}
	return paths
}

// pathCost sums the link costs along a node sequence, the check on each
// path's reported cost.
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

// diamond builds a 4-node diamond with two distinct s->t paths of costs 3
// and 4, plus a long direct edge of cost 10.
//
//	    b(1,2)
//	  /        \
//	s            t      s-t direct: 10
//	  \        /
//	    c(2,2)
func diamond(t *testing.T) (*Graph, NodeID, NodeID) {
	t.Helper()
	g := NewGraph()
	s := g.MustAddNode(KindIoT, "s", 0, 0)
	b := g.MustAddNode(KindRouter, "b", 0, 0)
	c := g.MustAddNode(KindRouter, "c", 0, 0)
	tt := g.MustAddNode(KindEdge, "t", 0, 0)
	g.MustAddLink(s, b, 1, 0)
	g.MustAddLink(b, tt, 2, 0)
	g.MustAddLink(s, c, 2, 0)
	g.MustAddLink(c, tt, 2, 0)
	g.MustAddLink(s, tt, 10, 0)
	return g, s, tt
}

func TestKShortestDiamond(t *testing.T) {
	g, s, dst := diamond(t)
	paths := kShortestPaths(g, s, dst, 5, LatencyCost)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3: %+v", len(paths), paths)
	}
	wantCosts := []float64{3, 4, 10}
	for i, w := range wantCosts {
		if math.Abs(paths[i].cost-w) > 1e-9 {
			t.Fatalf("path %d cost = %v, want %v", i, paths[i].cost, w)
		}
	}
	// First path goes through b.
	if len(paths[0].nodes) != 3 || g.Node(paths[0].nodes[1]).Name != "b" {
		t.Fatalf("path 0 = %v", paths[0].nodes)
	}
}

func TestKShortestLimitsToK(t *testing.T) {
	g, s, dst := diamond(t)
	if paths := kShortestPaths(g, s, dst, 2, LatencyCost); len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
}

func TestKShortestUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.MustAddNode(KindIoT, "a", 0, 0)
	b := g.MustAddNode(KindEdge, "b", 0, 0)
	if paths := kShortestPaths(g, a, b, 3, LatencyCost); paths != nil {
		t.Fatalf("expected no paths, got %v", paths)
	}
}

// Properties on generated topologies: costs are non-decreasing, paths are
// loopless, distinct, start/end correctly and cost what their links sum
// to; the first path matches Dijkstra.
func TestKShortestPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{NumIoT: 5, NumEdge: 2, NumGateways: 8, Seed: seed}
		g, err := Waxman(cfg, 0.9, 0.5, PlaceUniform)
		if err != nil {
			return false
		}
		iot := g.NodesOfKind(KindIoT)[0]
		edge := g.NodesOfKind(KindEdge)[0]
		paths := kShortestPaths(g, iot, edge, 4, LatencyCost)
		if len(paths) == 0 {
			return false // generated graphs are connected
		}
		if math.Abs(paths[0].cost-dijkstra(g, iot, LatencyCost).dist[edge]) > 1e-9 {
			return false
		}
		for i, p := range paths {
			if p.nodes[0] != iot || p.nodes[len(p.nodes)-1] != edge {
				return false
			}
			if i > 0 && p.cost < paths[i-1].cost-1e-9 {
				return false
			}
			seen := map[NodeID]bool{}
			for _, nid := range p.nodes {
				if seen[nid] {
					return false // loop
				}
				seen[nid] = true
			}
			if math.Abs(pathCost(g, p.nodes, LatencyCost)-p.cost) > 1e-9 {
				return false
			}
			for j := 0; j < i; j++ {
				if slices.Equal(paths[j].nodes, p.nodes) {
					return false // duplicate
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
