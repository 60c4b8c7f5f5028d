package topology

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// lineGraph builds iot - gw - router - edge with unit latencies.
func lineGraph(t *testing.T) (*Graph, NodeID, NodeID, NodeID, NodeID) {
	t.Helper()
	g := NewGraph()
	iot := g.MustAddNode(KindIoT, "iot-0", 0, 0)
	gw := g.MustAddNode(KindGateway, "gw-0", 1, 0)
	r := g.MustAddNode(KindRouter, "r-0", 2, 0)
	e := g.MustAddNode(KindEdge, "edge-0", 3, 0)
	g.MustAddLink(iot, gw, 1, 100)
	g.MustAddLink(gw, r, 1, 100)
	g.MustAddLink(r, e, 1, 100)
	return g, iot, gw, r, e
}

func TestAddNodeRejectsDuplicatesAndEmpty(t *testing.T) {
	g := NewGraph()
	if _, err := g.AddNode(KindIoT, "", 0, 0); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := g.AddNode(KindIoT, "a", 0, 0); err != nil {
		t.Fatalf("first add failed: %v", err)
	}
	if _, err := g.AddNode(KindEdge, "a", 0, 0); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := NewGraph()
	a := g.MustAddNode(KindIoT, "a", 0, 0)
	b := g.MustAddNode(KindEdge, "b", 0, 0)
	cases := []struct {
		name string
		do   func() error
	}{
		{"self-loop", func() error { return g.AddLink(a, a, 1, 1) }},
		{"bad endpoint", func() error { return g.AddLink(a, 99, 1, 1) }},
		{"negative latency", func() error { return g.AddLink(a, b, -1, 1) }},
		{"NaN latency", func() error { return g.AddLink(a, b, math.NaN(), 1) }},
		{"negative bandwidth", func() error { return g.AddLink(a, b, 1, -5) }},
	}
	for _, tc := range cases {
		if err := tc.do(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if err := g.AddLink(a, b, 1, 1); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	if err := g.AddLink(b, a, 1, 1); err == nil {
		t.Fatal("duplicate (reversed) link accepted")
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g, iot, gw, r, e := lineGraph(t)
	if got := g.Degree(gw); got != 2 {
		t.Fatalf("Degree(gw) = %d, want 2", got)
	}
	nbrs := g.Neighbors(gw)
	if len(nbrs) != 2 || nbrs[0] != iot || nbrs[1] != r {
		t.Fatalf("Neighbors(gw) = %v", nbrs)
	}
	if g.Degree(e) != 1 {
		t.Fatalf("Degree(edge) = %d, want 1", g.Degree(e))
	}
	_ = iot
}

func TestLinkBetween(t *testing.T) {
	g, iot, gw, _, e := lineGraph(t)
	l, ok := g.LinkBetween(iot, gw)
	if !ok || l.LatencyMs != 1 {
		t.Fatalf("LinkBetween(iot, gw) = %+v, %v", l, ok)
	}
	if _, ok := g.LinkBetween(iot, e); ok {
		t.Fatal("LinkBetween found nonexistent link")
	}
	if _, ok := g.LinkBetween(iot, 99); ok {
		t.Fatal("LinkBetween accepted out-of-range node")
	}
}

func TestConnectedAndValidate(t *testing.T) {
	g, _, _, _, _ := lineGraph(t)
	if !g.Connected() {
		t.Fatal("line graph should be connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Add an isolated node.
	g.MustAddNode(KindRouter, "island", 0, 0)
	if g.Connected() {
		t.Fatal("graph with island reported connected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted disconnected graph")
	}
}

func TestValidateRequiresRoles(t *testing.T) {
	g := NewGraph()
	a := g.MustAddNode(KindIoT, "a", 0, 0)
	b := g.MustAddNode(KindRouter, "b", 0, 0)
	g.MustAddLink(a, b, 1, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted graph without edge servers")
	}
}

func TestNodesOfKindAndCopySemantics(t *testing.T) {
	g, iot, _, _, e := lineGraph(t)
	iots := g.NodesOfKind(KindIoT)
	if len(iots) != 1 || iots[0] != iot {
		t.Fatalf("NodesOfKind(IoT) = %v", iots)
	}
	edges := g.NodesOfKind(KindEdge)
	if len(edges) != 1 || edges[0] != e {
		t.Fatalf("NodesOfKind(Edge) = %v", edges)
	}
	nodes := g.Nodes()
	nodes[0].Name = "mutated"
	if g.Node(0).Name == "mutated" {
		t.Fatal("Nodes leaked internal storage")
	}
}

// dijkstraTree is a whole-graph shortest-path tree, for tests.
type dijkstraTree struct {
	spTree
	c *coreGraph
}

// pathTo returns the tree's path from its source to v, nil if unreached.
func (t dijkstraTree) pathTo(v NodeID) []NodeID { return t.c.pathTo(t.spTree, v) }

// dijkstra runs the package's one shortest-path search from src over the
// whole graph, recording predecessors. A negative cost it relaxes panics
// with the search's message.
func dijkstra(g *Graph, src NodeID, cost LinkCost) dijkstraTree {
	c := newCoreGraph(g, cost, false)
	prev := make([]int, len(c.ids))
	dist, err := c.shortest(c.index[src], -1, nil, prev)
	if err != nil {
		panic(err.Error())
	}
	return dijkstraTree{spTree{dist, prev}, c}
}

func TestDijkstraLine(t *testing.T) {
	g, iot, gw, r, e := lineGraph(t)
	sp := dijkstra(g, iot, LatencyCost)
	want := map[NodeID]float64{iot: 0, gw: 1, r: 2, e: 3}
	for id, d := range want {
		if sp.dist[id] != d {
			t.Errorf("dist[%d] = %v, want %v", id, sp.dist[id], d)
		}
	}
	path := sp.pathTo(e)
	wantPath := []NodeID{iot, gw, r, e}
	if !slices.Equal(path, wantPath) {
		t.Fatalf("pathTo(e) = %v, want %v", path, wantPath)
	}
}

func TestDijkstraPicksCheaperPath(t *testing.T) {
	g := NewGraph()
	a := g.MustAddNode(KindIoT, "a", 0, 0)
	b := g.MustAddNode(KindRouter, "b", 0, 0)
	c := g.MustAddNode(KindEdge, "c", 0, 0)
	g.MustAddLink(a, c, 10, 0) // direct but slow
	g.MustAddLink(a, b, 2, 0)
	g.MustAddLink(b, c, 3, 0) // detour 5 < 10
	sp := dijkstra(g, a, LatencyCost)
	if sp.dist[c] != 5 {
		t.Fatalf("dist[c] = %v, want 5", sp.dist[c])
	}
	p := sp.pathTo(c)
	if len(p) != 3 || p[1] != b {
		t.Fatalf("pathTo(c) = %v, want detour through b", p)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.MustAddNode(KindIoT, "a", 0, 0)
	b := g.MustAddNode(KindEdge, "b", 0, 0)
	sp := dijkstra(g, a, LatencyCost)
	if !math.IsInf(sp.dist[b], 1) {
		t.Fatalf("dist to unreachable = %v, want +Inf", sp.dist[b])
	}
	if sp.pathTo(b) != nil {
		t.Fatal("pathTo(unreachable) should be nil")
	}
}

func TestHopCounts(t *testing.T) {
	g, iot, gw, r, e := lineGraph(t)
	hops := g.HopCounts(iot)
	for id, want := range map[NodeID]int{iot: 0, gw: 1, r: 2, e: 3} {
		if hops[id] != want {
			t.Errorf("hops[%d] = %d, want %d", id, hops[id], want)
		}
	}
	g.MustAddNode(KindRouter, "island", 0, 0)
	hops = g.HopCounts(iot)
	if hops[len(hops)-1] != -1 {
		t.Fatal("unreachable node should have hop count -1")
	}
}

func TestPayloadCost(t *testing.T) {
	l := Link{LatencyMs: 2, BandwidthMbps: 8}
	// 1 kB = 8000 bits; at 8 Mbit/s = 8000 bits/ms -> 1 ms transmission.
	got := PayloadCost(1)(l)
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("PayloadCost = %v, want 3", got)
	}
	// Zero bandwidth: transmission ignored.
	l.BandwidthMbps = 0
	if got := PayloadCost(1000)(l); got != 2 {
		t.Fatalf("PayloadCost with bw=0 = %v, want 2", got)
	}
}

// floydWarshall computes all-pairs shortest distances with the classic
// O(n^3) recurrence, an oracle independent of Dijkstra.
func floydWarshall(g *Graph, cost LinkCost) [][]float64 {
	n := len(g.nodes)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = Infinity
			}
		}
	}
	for _, l := range g.Links() {
		c := cost(l)
		if c < m[l.A][l.B] {
			m[l.A][l.B] = c
			m[l.B][l.A] = c
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if math.IsInf(m[i][k], 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if d := m[i][k] + m[k][j]; d < m[i][j] {
					m[i][j] = d
				}
			}
		}
	}
	return m
}

// oracleGraph returns the family's small graph (at most 80 nodes) that
// the oracle tests run on.
func oracleGraph(t *testing.T, fam Family) *Graph {
	t.Helper()
	g, err := Generate(fam, Config{NumIoT: 30, NumEdge: 4, NumGateways: 12, NumRouters: 4, Seed: 99}, PlaceHotspot)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() > 80 {
		t.Fatalf("%s: %d nodes, want at most 80", fam, g.NumNodes())
	}
	return g
}

// TestDijkstraMatchesFloydWarshall holds the shortest-path search to the
// Floyd–Warshall oracle from every node of every family's graph, under
// the latency and the payload cost model.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	for _, fam := range Families() {
		g := oracleGraph(t, fam)
		for _, cost := range []LinkCost{LatencyCost, PayloadCost(64)} {
			fw := floydWarshall(g, cost)
			for u := 0; u < g.NumNodes(); u++ {
				sp := dijkstra(g, NodeID(u), cost)
				for v := 0; v < g.NumNodes(); v++ {
					a, b := sp.dist[v], fw[u][v]
					if math.IsInf(a, 1) != math.IsInf(b, 1) {
						t.Fatalf("%s: reachability mismatch at %d->%d", fam, u, v)
					}
					if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
						t.Fatalf("%s: distance mismatch at %d->%d: dijkstra %v, fw %v", fam, u, v, a, b)
					}
				}
			}
		}
	}
}

// TestHopsMatchFloydWarshall holds the BFS behind HopCounts and Connected
// to Floyd–Warshall under unit link costs, on every family's graph and
// on a copy with an isolated node added.
func TestHopsMatchFloydWarshall(t *testing.T) {
	unit := func(Link) float64 { return 1 }
	for _, fam := range Families() {
		g := oracleGraph(t, fam)
		island := g.Clone()
		island.MustAddNode(KindRouter, "island", 0, 0)
		for _, g := range []*Graph{g, island} {
			fw := floydWarshall(g, unit)
			connected := true
			for u := 0; u < g.NumNodes(); u++ {
				hops := g.HopCounts(NodeID(u))
				for v, h := range hops {
					want := fw[u][v]
					if math.IsInf(want, 1) {
						connected = false
						want = -1
					}
					if float64(h) != want {
						t.Fatalf("%s, %d nodes: hops %d->%d = %d, fw %v", fam, g.NumNodes(), u, v, h, want)
					}
				}
			}
			if g.Connected() != connected {
				t.Fatalf("%s, %d nodes: Connected = %v, fw says %v", fam, g.NumNodes(), g.Connected(), connected)
			}
		}
	}
}

func TestDelayMatrix(t *testing.T) {
	g, iot, _, _, e := lineGraph(t)
	dm := NewDelayMatrix(g, LatencyCost)
	if dm.NumIoT() != 1 || dm.NumEdge() != 1 {
		t.Fatalf("matrix dims %dx%d, want 1x1", dm.NumIoT(), dm.NumEdge())
	}
	if dm.IoT[0] != iot || dm.Edge[0] != e {
		t.Fatal("matrix node IDs wrong")
	}
	if dm.DelayMs[0][0] != 3 {
		t.Fatalf("delay = %v, want 3", dm.DelayMs[0][0])
	}
	d, j := dm.MinDelay(0)
	if d != 3 || j != 0 {
		t.Fatalf("MinDelay = %v,%d", d, j)
	}
}

func TestDelayMatrixMatchesPerIoTDijkstra(t *testing.T) {
	cfg := Config{NumIoT: 30, NumEdge: 5, NumGateways: 10, Seed: 7}
	g, err := Hierarchical(cfg, PlaceHotspot)
	if err != nil {
		t.Fatal(err)
	}
	dm := NewDelayMatrix(g, LatencyCost)
	for i, iot := range dm.IoT {
		sp := dijkstra(g, iot, LatencyCost)
		for j, e := range dm.Edge {
			if math.Abs(dm.DelayMs[i][j]-sp.dist[e]) > 1e-9 {
				t.Fatalf("delay[%d][%d] = %v, dijkstra %v", i, j, dm.DelayMs[i][j], sp.dist[e])
			}
		}
	}
}

func TestNodeKindString(t *testing.T) {
	for k, want := range map[NodeKind]string{
		KindIoT: "iot", KindGateway: "gateway", KindRouter: "router",
		KindEdge: "edge", KindCloud: "cloud", NodeKind(42): "NodeKind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("NodeKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestEmptyGraphConnected(t *testing.T) {
	if !NewGraph().Connected() {
		t.Fatal("empty graph should be vacuously connected")
	}
}

func TestDOTContainsAllNodes(t *testing.T) {
	g, _, _, _, _ := lineGraph(t)
	var sb strings.Builder
	if err := g.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"iot-0", "gw-0", "r-0", "edge-0"} {
		if !strings.Contains(out, name) {
			t.Errorf("DOT output missing node %q", name)
		}
	}
}
