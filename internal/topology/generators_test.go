package topology

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"taccc/internal/jsonx"
)

func baseCfg(seed int64) Config {
	return Config{NumIoT: 40, NumEdge: 5, NumGateways: 10, NumRouters: 4, Seed: seed}
}

// checkGenerated verifies the invariants every generator must uphold.
func checkGenerated(t *testing.T, g *Graph, err error, cfg Config) {
	t.Helper()
	if err != nil {
		t.Fatalf("generator error: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	if got := len(g.NodesOfKind(KindIoT)); got != cfg.NumIoT {
		t.Fatalf("IoT count = %d, want %d", got, cfg.NumIoT)
	}
	if got := len(g.NodesOfKind(KindEdge)); got != cfg.NumEdge {
		t.Fatalf("edge count = %d, want %d", got, cfg.NumEdge)
	}
	// Every IoT device reaches every edge server.
	dm := NewDelayMatrix(g, LatencyCost)
	for i := range dm.DelayMs {
		for j := range dm.DelayMs[i] {
			if math.IsInf(dm.DelayMs[i][j], 1) {
				t.Fatalf("IoT %d cannot reach edge %d", i, j)
			}
			if dm.DelayMs[i][j] <= 0 {
				t.Fatalf("non-positive delay %v at (%d,%d)", dm.DelayMs[i][j], i, j)
			}
		}
	}
	// IoT devices have exactly one (wireless) uplink.
	for _, id := range g.NodesOfKind(KindIoT) {
		if g.Degree(id) != 1 {
			t.Fatalf("IoT node %d has degree %d, want 1", id, g.Degree(id))
		}
		nbr := g.Neighbors(id)[0]
		if g.Node(nbr).Kind != KindGateway {
			t.Fatalf("IoT node %d attached to %v, want gateway", id, g.Node(nbr).Kind)
		}
	}
}

func TestAllFamiliesGenerateValidGraphs(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			cfg := baseCfg(11)
			g, err := Generate(fam, cfg, PlaceUniform)
			checkGenerated(t, g, err, cfg)
		})
	}
}

func TestAllFamiliesHotspotPlacement(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			cfg := baseCfg(23)
			g, err := Generate(fam, cfg, PlaceHotspot)
			checkGenerated(t, g, err, cfg)
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, fam := range Families() {
		cfg := baseCfg(77)
		g1, err1 := Generate(fam, cfg, PlaceUniform)
		g2, err2 := Generate(fam, cfg, PlaceUniform)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", fam, err1, err2)
		}
		var b1, b2 bytes.Buffer
		if err := g1.WriteJSON(&b1); err != nil {
			t.Fatal(err)
		}
		if err := g2.WriteJSON(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("%s: same seed produced different graphs", fam)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := Hierarchical(baseCfg(1), PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hierarchical(baseCfg(2), PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := a.WriteJSON(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumIoT: 0, NumEdge: 1, NumGateways: 1},
		{NumIoT: 1, NumEdge: 0, NumGateways: 1},
		{NumIoT: 1, NumEdge: 1, NumGateways: 0},
		{NumIoT: 1, NumEdge: 1, NumGateways: 1, AreaMeters: -5},
	}
	for i, cfg := range bad {
		if _, err := Hierarchical(cfg, PlaceUniform); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGeneratorParameterValidation(t *testing.T) {
	cfg := baseCfg(1)
	if _, err := RandomGeometric(cfg, 0, PlaceUniform); err == nil {
		t.Error("RandomGeometric accepted radius 0")
	}
	if _, err := Waxman(cfg, 0, 0.5, PlaceUniform); err == nil {
		t.Error("Waxman accepted alpha 0")
	}
	if _, err := Waxman(cfg, 0.5, 1.5, PlaceUniform); err == nil {
		t.Error("Waxman accepted beta > 1")
	}
	if _, err := BarabasiAlbert(cfg, 0, PlaceUniform); err == nil {
		t.Error("BarabasiAlbert accepted attach 0")
	}
	if _, err := BarabasiAlbert(Config{NumIoT: 1, NumEdge: 1, NumGateways: 2, Seed: 1}, 5, PlaceUniform); err == nil {
		t.Error("BarabasiAlbert accepted attach >= gateways")
	}
	if _, err := Grid(cfg, 0, 3, PlaceUniform); err == nil {
		t.Error("Grid accepted 0 rows")
	}
	if _, err := FatTree(cfg, 3, PlaceUniform); err == nil {
		t.Error("FatTree accepted odd k")
	}
	if _, err := Ring(Config{NumIoT: 1, NumEdge: 1, NumGateways: 2, Seed: 1}, PlaceUniform); err == nil {
		t.Error("Ring accepted 2 gateways")
	}
	if _, err := Generate(Family("nope"), cfg, PlaceUniform); err == nil {
		t.Error("Generate accepted unknown family")
	}
}

func TestGridStructure(t *testing.T) {
	cfg := Config{NumIoT: 10, NumEdge: 2, NumGateways: 1, Seed: 3}
	g, err := Grid(cfg, 3, 4, PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.NodesOfKind(KindGateway)); got != 12 {
		t.Fatalf("gateway count = %d, want 12", got)
	}
	// Interior lattice links: 3*3 + 2*4 = 17.
	wired := 0
	for _, l := range g.Links() {
		if g.Node(l.A).Kind == KindGateway && g.Node(l.B).Kind == KindGateway {
			wired++
		}
	}
	if wired != 17 {
		t.Fatalf("lattice link count = %d, want 17", wired)
	}
}

func TestFatTreeStructure(t *testing.T) {
	cfg := Config{NumIoT: 10, NumEdge: 4, NumGateways: 8, Seed: 3}
	g, err := FatTree(cfg, 4, PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 core + 4 pods * (2 agg + 2 tor) = 20 routers.
	if got := len(g.NodesOfKind(KindRouter)); got != 20 {
		t.Fatalf("router count = %d, want 20", got)
	}
	checkGenerated(t, g, nil, cfg)
}

func TestBarabasiAlbertHubEmerges(t *testing.T) {
	cfg := Config{NumIoT: 5, NumEdge: 2, NumGateways: 60, Seed: 13}
	g, err := BarabasiAlbert(cfg, 2, PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := 0
	for _, gw := range g.NodesOfKind(KindGateway) {
		deg := 0
		for _, n := range g.Neighbors(gw) {
			if g.Node(n).Kind == KindGateway {
				deg++
			}
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	// Preferential attachment should produce at least one clear hub.
	if maxDeg < 6 {
		t.Fatalf("max gateway degree = %d; expected a hub >= 6", maxDeg)
	}
}

// TestJSONRoundTrip decodes WriteJSON's output through the strict
// reader: every node and link of the graph is in it, in ID order, and
// re-encoding the decoded form reproduces the bytes.
func TestJSONRoundTrip(t *testing.T) {
	g, err := Hierarchical(baseCfg(21), PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var gj graphJSON
	if err := jsonx.Decode(bytes.NewReader(buf.Bytes()), &gj); err != nil {
		t.Fatal(err)
	}
	if len(gj.Nodes) != g.NumNodes() || len(gj.Links) != g.NumLinks() {
		t.Fatalf("wire form has %d/%d nodes/links, graph %d/%d",
			len(gj.Nodes), len(gj.Links), g.NumNodes(), g.NumLinks())
	}
	for id, n := range gj.Nodes {
		want := g.Node(NodeID(id))
		if n.Kind != want.Kind.String() || n.Name != want.Name || n.X != want.X || n.Y != want.Y {
			t.Fatalf("node %d = %+v, want %+v", id, n, want)
		}
	}
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	enc.SetIndent("", "  ")
	if err := enc.Encode(gj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("re-encoding the decoded graph changed the bytes")
	}
}

// Property: for arbitrary small configs and seeds, the hierarchical
// generator yields valid graphs whose delay matrix is fully finite.
func TestHierarchicalQuick(t *testing.T) {
	f := func(seed int64, nIoT, nEdge, nGw uint8) bool {
		cfg := Config{
			NumIoT:      int(nIoT%30) + 1,
			NumEdge:     int(nEdge%6) + 1,
			NumGateways: int(nGw%8) + 1,
			Seed:        seed,
		}
		g, err := Hierarchical(cfg, PlaceUniform)
		if err != nil {
			return false
		}
		dm := NewDelayMatrix(g, LatencyCost)
		for i := range dm.DelayMs {
			for j := range dm.DelayMs[i] {
				if math.IsInf(dm.DelayMs[i][j], 1) || dm.DelayMs[i][j] <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNonFiniteGeometryIsAnError: a NaN or infinite deployment area, or a
// device coordinate, is an error returned before the graph is touched —
// not a panic on the first NaN link latency, and not a device silently
// attached to the first gateway.
func TestNonFiniteGeometryIsAnError(t *testing.T) {
	for _, area := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := Config{NumIoT: 10, NumEdge: 2, NumGateways: 4, AreaMeters: area, Seed: 1}
		for _, fam := range Families() {
			if _, err := Generate(fam, cfg, PlaceUniform); err == nil {
				t.Errorf("%s accepted AreaMeters %v", fam, area)
			}
		}
		if _, err := HierarchicalInfra(cfg); err == nil {
			t.Errorf("HierarchicalInfra accepted AreaMeters %v", area)
		}
	}
	infra, err := HierarchicalInfra(Config{NumEdge: 2, NumGateways: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, xy := range [][2]float64{{math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1}, {1, math.Inf(-1)}} {
		g := infra.Clone()
		nodes, links := g.NumNodes(), g.NumLinks()
		if err := AttachIoTAt(g, []float64{10, xy[0]}, []float64{10, xy[1]}, LinkParams{}, 1); err == nil {
			t.Errorf("AttachIoTAt accepted device at (%v, %v)", xy[0], xy[1])
		}
		if g.NumNodes() != nodes || g.NumLinks() != links {
			t.Errorf("AttachIoTAt at (%v, %v) changed the graph before failing", xy[0], xy[1])
		}
	}
}
