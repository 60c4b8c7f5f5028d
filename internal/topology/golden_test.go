package topology

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"taccc/internal/xrand"
)

// goldenSizes are the two deployment sizes the golden hashes pin:
// scenario-shaped configs (2 gateways and 1 router per edge server).
var goldenSizes = []struct{ iot, edge int }{{300, 20}, {2000, 50}}

func goldenConfig(iot, edge int) Config {
	return Config{NumIoT: iot, NumEdge: edge, NumGateways: 2 * edge, NumRouters: edge, Seed: 11}
}

// goldenMatrixHashes pins every cell of the delay matrix (IoT and edge
// IDs plus the bits of each delay, row by row) for each family, cost
// model and size, taken from the full-Dijkstra implementation.
var goldenMatrixHashes = map[string]string{
	"hierarchical/latency/300x20":     "57bb1e622da79554",
	"hierarchical/payload/300x20":     "d991dc096e8a9301",
	"hierarchical/latency/2000x50":    "d8f4a43450db2173",
	"hierarchical/payload/2000x50":    "7fa8579ef15172bd",
	"geometric/latency/300x20":        "111702f3c983d73a",
	"geometric/payload/300x20":        "e4e40716cb1aa19d",
	"geometric/latency/2000x50":       "4e7a4830baa7a1e7",
	"geometric/payload/2000x50":       "e5382c1ccbeb234f",
	"waxman/latency/300x20":           "86cd18eed3d79a43",
	"waxman/payload/300x20":           "6baa3dd8d97930ee",
	"waxman/latency/2000x50":          "a26878a5dc742c90",
	"waxman/payload/2000x50":          "db3374c055115fa3",
	"barabasi-albert/latency/300x20":  "8d62fa5f8b66bada",
	"barabasi-albert/payload/300x20":  "1083a54206286ad7",
	"barabasi-albert/latency/2000x50": "f974cd8df22644d7",
	"barabasi-albert/payload/2000x50": "2703249dc32c1024",
	"grid/latency/300x20":             "2afdd8b0516034c9",
	"grid/payload/300x20":             "be508c79013325dd",
	"grid/latency/2000x50":            "374be4228d8cab95",
	"grid/payload/2000x50":            "897b80cf98089461",
	"fattree/latency/300x20":          "462f44ce3d17b2ec",
	"fattree/payload/300x20":          "0bdb363c6322f680",
	"fattree/latency/2000x50":         "0456b9a368fc9e34",
	"fattree/payload/2000x50":         "567b6de3debd3e15",
	"star/latency/300x20":             "948243fa5d9105ba",
	"star/payload/300x20":             "155322100834512a",
	"star/latency/2000x50":            "c956cae333a623ff",
	"star/payload/2000x50":            "98dab2174c51cd0b",
	"ring/latency/300x20":             "7f79e2c74ee7951f",
	"ring/payload/300x20":             "622404463ebffa50",
	"ring/latency/2000x50":            "d3c277f483f7fd82",
	"ring/payload/2000x50":            "8b4b8ca60358e7fd",
}

// goldenGraphHashes pins each generated graph (every node's kind, name
// and coordinate bits, then every link with its latency and bandwidth
// bits), and so every nearest-gateway and nearest-router attach choice.
var goldenGraphHashes = map[string]string{
	"hierarchical/uniform/300x20":     "642bcd21f43c41e6",
	"hierarchical/hotspot/300x20":     "d804ce84d85aa71f",
	"hierarchical/uniform/2000x50":    "d4d75c6452ff21e6",
	"hierarchical/hotspot/2000x50":    "1c54acfad92fc76a",
	"geometric/uniform/300x20":        "4534f387610420b5",
	"geometric/hotspot/300x20":        "61aeb838be4f5f1c",
	"geometric/uniform/2000x50":       "94a281262da6a719",
	"geometric/hotspot/2000x50":       "e6d88375532155dc",
	"waxman/uniform/300x20":           "5a3e2c53dfa42f11",
	"waxman/hotspot/300x20":           "788e9ee5d0ae3a30",
	"waxman/uniform/2000x50":          "d319d73990ce732b",
	"waxman/hotspot/2000x50":          "98c40a9e4f25ceeb",
	"barabasi-albert/uniform/300x20":  "d71588857650ce06",
	"barabasi-albert/hotspot/300x20":  "78a4d0fcccbf5751",
	"barabasi-albert/uniform/2000x50": "a8624fcfcf58e4bb",
	"barabasi-albert/hotspot/2000x50": "382b70f07187d6d6",
	"grid/uniform/300x20":             "a78911c79132d85e",
	"grid/hotspot/300x20":             "474710f11d3ba2ea",
	"grid/uniform/2000x50":            "74f362ab725ce449",
	"grid/hotspot/2000x50":            "74ba68ec0694db3a",
	"fattree/uniform/300x20":          "5eb23caf487dc042",
	"fattree/hotspot/300x20":          "ec83486a59aa891e",
	"fattree/uniform/2000x50":         "9917d32e03006174",
	"fattree/hotspot/2000x50":         "92ab25607bb414d8",
	"star/uniform/300x20":             "e6b7ce3ecf8c6e80",
	"star/hotspot/300x20":             "53b92faa909e9e16",
	"star/uniform/2000x50":            "4b19e43a3a8add01",
	"star/hotspot/2000x50":            "d42f64a16548c85d",
	"ring/uniform/300x20":             "0f2217d64a38eda3",
	"ring/hotspot/300x20":             "9f8f5e9894727e1a",
	"ring/uniform/2000x50":            "33969d22f70e4fcf",
	"ring/hotspot/2000x50":            "daa449c2e13cb165",
	"infra+attach":                    "cd04956dfe1b38fd",
}

func hashMatrix(dm *DelayMatrix) string {
	h := fnv.New64a()
	writeMatrix(h, dm)
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeMatrix writes a delay matrix's IoT and edge IDs and the bits of
// every cell, row by row.
func writeMatrix(w io.Writer, dm *DelayMatrix) {
	fmt.Fprintln(w, dm.IoT, dm.Edge)
	for _, row := range dm.DelayMs {
		writeBits(w, row...)
	}
}

// writeBits writes each value's full-precision bits, little-endian.
func writeBits(w io.Writer, xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		b := math.Float64bits(x)
		for k := range buf {
			buf[k] = byte(b >> (8 * k))
		}
		w.Write(buf[:])
	}
}

func hashGraph(g *Graph) string {
	h := fnv.New64a()
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "%d %s %x %x\n", n.Kind, n.Name, math.Float64bits(n.X), math.Float64bits(n.Y))
	}
	for _, l := range g.Links() {
		fmt.Fprintf(h, "%d %d %x %x\n", l.A, l.B, math.Float64bits(l.LatencyMs), math.Float64bits(l.BandwidthMbps))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func checkGolden(t *testing.T, pinned map[string]string, name, got string) {
	t.Helper()
	want, ok := pinned[name]
	if !ok {
		t.Fatalf("%s: no pinned hash", name)
	}
	if got != want {
		t.Errorf("%s: hash %s, pinned %s", name, got, want)
	}
}

// TestDelayMatrixGolden requires every family's delay matrix, under the
// latency and the payload cost model and at both sizes, to hash to the
// value pinned from the full-Dijkstra implementation.
func TestDelayMatrixGolden(t *testing.T) {
	costs := []struct {
		name string
		cost LinkCost
	}{{"latency", LatencyCost}, {"payload", PayloadCost(64)}}
	for _, fam := range Families() {
		for _, sz := range goldenSizes {
			g, err := Generate(fam, goldenConfig(sz.iot, sz.edge), PlaceUniform)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range costs {
				name := fmt.Sprintf("%s/%s/%dx%d", fam, c.name, sz.iot, sz.edge)
				checkGolden(t, goldenMatrixHashes, name, hashMatrix(NewDelayMatrix(g, c.cost)))
			}
		}
	}
}

// TestGeneratedGraphsGolden requires every family's graph, under both
// placements and at both sizes, and an infrastructure graph with devices
// attached at fixed coordinates, to hash to the pinned value.
func TestGeneratedGraphsGolden(t *testing.T) {
	places := []struct {
		name  string
		place Placement
	}{{"uniform", PlaceUniform}, {"hotspot", PlaceHotspot}}
	for _, fam := range Families() {
		for _, sz := range goldenSizes {
			for _, p := range places {
				g, err := Generate(fam, goldenConfig(sz.iot, sz.edge), p.place)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/%dx%d", fam, p.name, sz.iot, sz.edge)
				checkGolden(t, goldenGraphHashes, name, hashGraph(g))
			}
		}
	}
	g, err := HierarchicalInfra(Config{NumEdge: 20, NumGateways: 40, NumRouters: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := goldenAttachPoints(g)
	if err := AttachIoTAt(g, xs, ys, LinkParams{}, 9); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenGraphHashes, "infra+attach", hashGraph(g))
}

// goldenAttachPoints returns fixed device coordinates over and around a
// 5 km deployment: random points, a coarse lattice, points far outside
// the area on every side, and one point on top of each gateway.
func goldenAttachPoints(g *Graph) (xs, ys []float64) {
	src := xrand.NewSplit(13, "golden-attach")
	for i := 0; i < 400; i++ {
		xs = append(xs, src.Uniform(0, 5000))
		ys = append(ys, src.Uniform(0, 5000))
	}
	for x := -1000.0; x <= 6000; x += 500 {
		for y := -1000.0; y <= 6000; y += 500 {
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	for _, far := range [][2]float64{{-1e6, 2500}, {1e6, 2500}, {2500, -1e6}, {2500, 1e6}, {-1e5, -1e5}, {1e5, 1e5}} {
		xs = append(xs, far[0])
		ys = append(ys, far[1])
	}
	for _, id := range g.NodesOfKind(KindGateway) {
		n := g.Node(id)
		xs = append(xs, n.X)
		ys = append(ys, n.Y)
	}
	return xs, ys
}

// goldenSearchHashes pins, per family, every graph search and congestion
// evaluator on hotspot deployments at seeds 1–4 (see hashSearches).
var goldenSearchHashes = map[string]string{
	"hierarchical":    "f132cbf2f80eb808",
	"geometric":       "93f0822346881907",
	"waxman":          "5c50a83a7fa71319",
	"barabasi-albert": "9a9084db571cabf8",
	"grid":            "2f4f0fd8e0e01444",
	"fattree":         "0b8113efb5f5165c",
	"star":            "f5bd40f604088ad4",
	"ring":            "435937b751a02755",
}

// searchGoldenConfig is the small deployment the search golden walks:
// every node is a shortest-path and BFS source, so it stays under 100
// nodes.
func searchGoldenConfig(seed int64) Config {
	return Config{NumIoT: 48, NumEdge: 6, NumGateways: 12, NumRouters: 6, Seed: seed}
}

// TestTopologySearchGolden requires every family's searches and
// evaluators, over hotspot deployments at seeds 1 to 4, to hash to the
// value pinned before the searches shared one kernel.
func TestTopologySearchGolden(t *testing.T) {
	for _, fam := range Families() {
		h := fnv.New64a()
		for seed := int64(1); seed <= 4; seed++ {
			g, err := Generate(fam, searchGoldenConfig(seed), PlaceHotspot)
			if err != nil {
				t.Fatal(err)
			}
			if err := hashSearches(h, g, seed); err != nil {
				t.Fatalf("%s seed %d: %v", fam, seed, err)
			}
		}
		checkGolden(t, goldenSearchHashes, string(fam), fmt.Sprintf("%016x", h.Sum64()))
	}
}

// hashSearches writes, at full precision:
//   - the shortest-path tree (distance bits and predecessors) from every
//     node under LatencyCost and PayloadCost(32);
//   - up to 4 k-shortest paths (nodes and cost bits) from every third
//     device to every edge server under both cost models;
//   - HopCounts from every node, Connected, Resilience and
//     ComputeMetrics;
//   - EvaluateCongestion, CongestionAwareDelayMatrix and
//     EvaluateCongestionMultipath (k = 3) for heavy flows from every
//     device, half of them on their nearest edge and half on a drawn one.
func hashSearches(h hash.Hash, g *Graph, seed int64) error {
	costs := []LinkCost{LatencyCost, PayloadCost(32)}
	for _, cost := range costs {
		for v := 0; v < g.NumNodes(); v++ {
			tr := dijkstra(g, NodeID(v), cost)
			writeBits(h, tr.dist...)
			fmt.Fprintln(h, tr.prev)
		}
	}
	iot, edge := g.NodesOfKind(KindIoT), g.NodesOfKind(KindEdge)
	for _, cost := range costs {
		for i := 0; i < len(iot); i += 3 {
			for _, e := range edge {
				for _, p := range kShortestPaths(g, iot[i], e, 4, cost) {
					fmt.Fprintln(h, p.nodes)
					writeBits(h, p.cost)
				}
			}
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintln(h, g.HopCounts(NodeID(v)))
	}
	rep := g.Resilience()
	fmt.Fprintln(h, g.Connected(), rep.CutVertices, rep.WorstCaseStranded, rep.WorstVertex)
	m := ComputeMetrics(g)
	fmt.Fprintln(h, m.Nodes, m.Links, m.ByKind[KindIoT], m.ByKind[KindGateway], m.ByKind[KindRouter],
		m.ByKind[KindEdge], m.ByKind[KindCloud], m.MaxDegree, m.DiameterHops)
	writeBits(h, m.AvgDegree, m.AvgIoTMinDelayMs, m.MaxIoTMinDelayMs, m.AvgIoTEdgeHops)

	dm := NewDelayMatrix(g, LatencyCost)
	src := xrand.NewSplit(seed, "search-golden-flows")
	flows := make([]Flow, len(dm.IoT))
	assignment := make([]int, len(dm.IoT))
	for i := range flows {
		flows[i] = Flow{IoT: dm.IoT[i], RateHz: src.Uniform(1, 20), PayloadKB: src.Uniform(10, 400)}
		_, assignment[i] = dm.MinDelay(i)
		if i%2 == 1 {
			assignment[i] = src.Intn(len(dm.Edge))
		}
	}
	single, err := EvaluateCongestion(g, dm, flows, assignment)
	if err != nil {
		return err
	}
	aware, err := CongestionAwareDelayMatrix(g, dm, flows, assignment)
	if err != nil {
		return err
	}
	multi, err := g.EvaluateCongestionMultipath(dm, flows, assignment, 3)
	if err != nil {
		return err
	}
	for _, r := range []*CongestionResult{single, multi} {
		writeBits(h, r.DelayMs...)
		for _, l := range r.Links {
			fmt.Fprintln(h, l.Link.A, l.Link.B)
			writeBits(h, l.Link.LatencyMs, l.Link.BandwidthMbps, l.Mbps, l.Utilization)
		}
		fmt.Fprintln(h, r.Overloaded)
	}
	writeMatrix(h, aware)
	return nil
}
