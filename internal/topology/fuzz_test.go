package topology

import (
	"fmt"
	"math"
	"testing"

	"taccc/internal/xrand"
)

// referenceDelayMatrix is the delay matrix as one full Dijkstra per edge
// node over the whole graph, devices included: the oracle for the
// leaf-contracted build.
func referenceDelayMatrix(g *Graph, cost LinkCost) *DelayMatrix {
	iot, edge := g.NodesOfKind(KindIoT), g.NodesOfKind(KindEdge)
	m := make([][]float64, len(iot))
	for i := range m {
		m[i] = make([]float64, len(edge))
	}
	for j, e := range edge {
		sp := dijkstra(g, e, cost)
		for i, d := range iot {
			m[i][j] = sp.dist[d]
		}
	}
	return &DelayMatrix{IoT: iot, Edge: edge, DelayMs: m}
}

// leafCosts are the cost models the matrix fuzz target draws from. The
// custom ones key on the link bandwidth, which decodeLeafGraph draws from
// {0, 10, 20, 30}: NaN on 10 Mbit/s links, a negative cost on 20 Mbit/s
// links, and a negative cost on 30 Mbit/s links in the high-to-low ID
// direction only (from a device back to its gateway).
var leafCosts = []LinkCost{
	LatencyCost,
	PayloadCost(64),
	func(l Link) float64 {
		if l.BandwidthMbps == 10 {
			return math.NaN()
		}
		return l.LatencyMs
	},
	func(l Link) float64 {
		if l.BandwidthMbps == 20 {
			return -1
		}
		return l.LatencyMs
	},
	func(l Link) float64 {
		if l.BandwidthMbps == 30 && l.A > l.B {
			return -0.5
		}
		return l.LatencyMs
	},
}

// decodeLeafGraph builds a small graph from fuzz bytes: 1–8 infrastructure
// nodes (node 0 an edge, the rest edge, gateway, router or cloud), 1–10
// devices each given zero or one link to an infrastructure node, then one
// extra link per remaining 4 bytes between any two nodes (backbone,
// multi-homing, device pairs). Latencies are 0, +Inf or a multiple of
// 1/16 ms; bandwidths are 0, 10, 20 or 30 Mbit/s. Links the graph rejects
// (duplicates, self-loops) are skipped.
func decodeLeafGraph(data []byte) *Graph {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	latency := func(b byte) float64 {
		switch b % 8 {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		default:
			return float64(b) / 16
		}
	}
	g := NewGraph()
	nInfra, nIoT := 1+int(next()%8), 1+int(next()%10)
	kinds := []NodeKind{KindEdge, KindGateway, KindRouter, KindCloud}
	for v := 0; v < nInfra; v++ {
		kind := KindEdge
		if v > 0 {
			kind = kinds[next()%4]
		}
		g.MustAddNode(kind, fmt.Sprintf("n%d", v), 0, 0)
	}
	for i := 0; i < nIoT; i++ {
		g.MustAddNode(KindIoT, fmt.Sprintf("iot%d", i), 0, 0)
	}
	for i := 0; i < nIoT; i++ {
		if b := next(); b%5 != 4 {
			_ = g.AddLink(NodeID(nInfra+i), NodeID(int(b)%nInfra), latency(next()), float64(next()%4)*10)
		}
	}
	n := nInfra + nIoT
	for len(data) >= 4 {
		a, b := NodeID(int(next())%n), NodeID(int(next())%n)
		_ = g.AddLink(a, b, latency(next()), float64(next()%4)*10)
	}
	return g
}

// leafSeed is a hand-built decodeLeafGraph input holding every shape the
// contraction must get right: edges n0 and n3, gateway n1, router n2; a
// device on a zero-latency 10 Mbit/s (NaN-cost) link to the gateway, a
// device hanging directly off edge n0, a device behind a +Inf-latency
// link, a device multi-homed to n2 (over a 20 Mbit/s, negative-cost link)
// and to n3, and a component of two devices linked only to each other.
var leafSeed = []byte{
	3, 5, 1, 2, 0, // 4 infra nodes (edge, gateway, router, edge), 6 devices
	1, 0, 1, // iot0 -> n1, latency 0, 10 Mbit/s
	0, 2, 0, // iot1 -> n0 (an edge), 0.125 ms
	1, 9, 0, // iot2 -> n1, +Inf
	2, 20, 2, // iot3 -> n2, 1.25 ms, 20 Mbit/s
	4,          // iot4: no access link
	9,          // iot5: no access link
	0, 1, 3, 0, // n0-n1
	1, 2, 5, 0, // n1-n2
	2, 3, 7, 3, // n2-n3, 30 Mbit/s
	7, 3, 6, 0, // iot3-n3: multi-homed
	8, 9, 4, 0, // iot4-iot5: a two-device component
}

// leafSeeds returns the matrix fuzz corpus: leafSeed and 64 random byte
// strings, each under every cost model.
func leafSeeds() [][]byte {
	seeds := [][]byte{leafSeed}
	src := xrand.NewSplit(1, "fuzz-delay-matrix-leaf")
	for s := 0; s < 64; s++ {
		b := make([]byte, 8+src.Intn(56))
		for k := range b {
			b[k] = byte(src.Intn(256))
		}
		seeds = append(seeds, b)
	}
	return seeds
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// FuzzDelayMatrixLeaf compares the leaf-contracted delay matrix with the
// full-Dijkstra reference, bit for bit in every cell, on small decoded
// graphs under each cost model. A cost model that makes the reference
// panic (a negative cost it reaches) must make the build panic too.
func FuzzDelayMatrixLeaf(f *testing.F) {
	for _, s := range leafSeeds() {
		for c := range leafCosts {
			f.Add(s, uint8(c))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, costKind uint8) {
		g := decodeLeafGraph(data)
		cost := leafCosts[int(costKind)%len(leafCosts)]
		var want, got *DelayMatrix
		wantPanic := panics(func() { want = referenceDelayMatrix(g, cost) })
		gotPanic := panics(func() { got = NewDelayMatrixWorkers(g, cost, 1) })
		if wantPanic != gotPanic {
			t.Fatalf("reference panics: %v, contracted build panics: %v", wantPanic, gotPanic)
		}
		if wantPanic {
			return
		}
		if err := sameMatrixBits(got, want); err != nil {
			t.Fatalf("contracted build vs reference: %v", err)
		}
		if err := sameMatrixBits(NewDelayMatrixWorkers(g, cost, 3), got); err != nil {
			t.Fatalf("3 workers vs 1: %v", err)
		}
	})
}

// sameMatrixBits reports the first difference between two delay
// matrices, comparing the bits of every cell.
func sameMatrixBits(got, want *DelayMatrix) error {
	if fmt.Sprint(got.IoT, got.Edge) != fmt.Sprint(want.IoT, want.Edge) {
		return fmt.Errorf("rows/columns %v %v, want %v %v", got.IoT, got.Edge, want.IoT, want.Edge)
	}
	for i := range want.DelayMs {
		for j, w := range want.DelayMs[i] {
			if d := got.DelayMs[i][j]; math.Float64bits(d) != math.Float64bits(w) {
				return fmt.Errorf("cell (%d,%d) = %v, want %v", i, j, d, w)
			}
		}
	}
	return nil
}

// TestLeafSeedShapes checks that the matrix fuzz corpus holds every shape
// the contraction must handle, so plain `go test` exercises them all.
func TestLeafSeedShapes(t *testing.T) {
	found := map[string]bool{}
	for _, s := range leafSeeds() {
		g := decodeLeafGraph(s)
		for _, l := range g.Links() {
			switch {
			case l.LatencyMs == 0:
				found["zero-latency link"] = true
			case math.IsInf(l.LatencyMs, 1):
				found["+Inf-latency link"] = true
			}
			if l.BandwidthMbps == 10 {
				found["NaN-cost link"] = true
			}
		}
		for _, d := range g.NodesOfKind(KindIoT) {
			nb := g.Neighbors(d)
			switch {
			case len(nb) > 1:
				found["multi-homed device"] = true
			case len(nb) == 1 && g.Node(nb[0]).Kind == KindEdge:
				found["device off an edge node"] = true
			case len(nb) == 1 && g.Node(nb[0]).Kind == KindIoT && g.Degree(nb[0]) == 1:
				found["two-device component"] = true
			}
		}
	}
	for _, want := range []string{"zero-latency link", "+Inf-latency link", "NaN-cost link", "multi-homed device", "device off an edge node", "two-device component"} {
		if !found[want] {
			t.Errorf("no seed graph has a %s", want)
		}
	}
}

// TestDelayMatrixNegativeCostPanics keeps the contract of Dijkstra: a
// negative cost on a reachable link panics, in the core and on a device's
// access link alike.
func TestDelayMatrixNegativeCostPanics(t *testing.T) {
	g := decodeLeafGraph(leafSeed)
	for _, cost := range []LinkCost{
		func(l Link) float64 { return -1 },
		leafCosts[3],
		leafCosts[4],
	} {
		if !panics(func() { NewDelayMatrixWorkers(g, cost, 1) }) {
			t.Error("negative cost accepted")
		}
	}
}

// nearestLinear is the attach scan the grid replaces: the candidate with
// the smallest Graph.Dist, ties to the earliest, the first when none is
// finite.
func nearestLinear(g *Graph, id NodeID, cands []NodeID) NodeID {
	best, bestD := cands[0], math.Inf(1)
	for _, c := range cands {
		if d := g.Dist(id, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// decodeAttachLayout places gateways and devices from fuzz bytes. The
// layout byte picks the gateway shape — bit 0 a lattice (with devices on
// a half-step lattice, so many are equidistant from several gateways),
// bit 1 everything on one line, bit 2 every gateway doubled at the same
// point — and bit 3 a fractional unit instead of whole meters. Device
// coordinates span three times the gateways' range, so many fall outside
// the gateways' bounding box.
func decodeAttachLayout(data []byte, layout uint8) (*Graph, []NodeID, []NodeID) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	unit := 1.0
	if layout&8 != 0 {
		unit = 0.37
	}
	coord := func(b byte) float64 { return float64(int8(b)) * unit }
	g := NewGraph()
	var gws, devs []NodeID
	addGW := func(x, y float64) {
		copies := 1
		if layout&4 != 0 {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			if layout&2 != 0 {
				y = x // collinear: the diagonal
			}
			gws = append(gws, g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d", len(gws)), x, y))
		}
	}
	if layout&1 != 0 {
		rows, cols, step := 1+int(next()%6), 1+int(next()%6), 1+float64(next()%16)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				addGW(float64(c)*step*unit, float64(r)*step*unit)
			}
		}
		for len(data) >= 2 {
			x, y := float64(int8(next())%16)*step/2, float64(int8(next())%16)*step/2
			devs = append(devs, g.MustAddNode(KindIoT, fmt.Sprintf("iot-%d", len(devs)), x*unit, y*unit))
		}
		return g, gws, devs
	}
	for k := 1 + int(next()%24); k > 0; k-- {
		addGW(coord(next()), coord(next()))
	}
	for len(data) >= 2 {
		x, y := 3*coord(next()), 3*coord(next())
		devs = append(devs, g.MustAddNode(KindIoT, fmt.Sprintf("iot-%d", len(devs)), x, y))
	}
	return g, gws, devs
}

// FuzzNearestGateway compares the gridded attach with the linear scan on
// every device of a decoded layout.
func FuzzNearestGateway(f *testing.F) {
	src := xrand.NewSplit(2, "fuzz-nearest-gateway")
	for s := 0; s < 32; s++ {
		b := make([]byte, 16+src.Intn(112))
		for k := range b {
			b[k] = byte(src.Intn(256))
		}
		for layout := uint8(0); layout < 16; layout++ {
			f.Add(b, layout)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, layout uint8) {
		g, gws, devs := decodeAttachLayout(data, layout)
		near := newNearestGrid(g, gws)
		for _, d := range devs {
			if got, want := near.nearest(d), nearestLinear(g, d, gws); got != want {
				t.Fatalf("device %v: grid picked %v (%v m), linear scan %v (%v m)",
					g.Node(d), g.Node(got), g.Dist(d, got), g.Node(want), g.Dist(d, want))
			}
		}
	})
}

// TestNearestGridTieAcrossCellBoundary pins the pruning test's margin
// on an exact tie: the 4 gateways make 10 m cells, and the query at (5, 5)
// finds gw-1 at 5 m in its own cell while gw-0, also at 5 m but with the
// lower ID, sits on the boundary of the next cell, exactly 5 m away. The
// next ring must still be scanned.
func TestNearestGridTieAcrossCellBoundary(t *testing.T) {
	g := NewGraph()
	gws := []NodeID{
		g.MustAddNode(KindGateway, "gw-0", 10, 5),
		g.MustAddNode(KindGateway, "gw-1", 2, 1),
		g.MustAddNode(KindGateway, "gw-2", 0, 0),
		g.MustAddNode(KindGateway, "gw-3", 20, 20),
	}
	d := g.MustAddNode(KindIoT, "iot", 5, 5)
	if got := newNearestGrid(g, gws).nearest(d); got != gws[0] {
		t.Fatalf("grid picked %s, want gw-0 (the lower ID at the same distance)", g.Node(got).Name)
	}
}

// TestNearestGridNonFinite covers the inputs the generators never make:
// gateways at non-finite coordinates are skipped, and a query with no
// finite distance gets the first gateway, as the linear scan does.
func TestNearestGridNonFinite(t *testing.T) {
	g := NewGraph()
	inf, nan := math.Inf(1), math.NaN()
	gws := []NodeID{
		g.MustAddNode(KindGateway, "gw-nan", nan, 0),
		g.MustAddNode(KindGateway, "gw-a", 0, 0),
		g.MustAddNode(KindGateway, "gw-inf", inf, 5),
		g.MustAddNode(KindGateway, "gw-b", 10, 0),
	}
	near := newNearestGrid(g, gws)
	for _, q := range [][2]float64{{1, 1}, {9, 0}, {5, 0}, {-1e9, 3}, {nan, 1}, {inf, 0}, {-inf, -inf}} {
		d := g.MustAddNode(KindIoT, fmt.Sprintf("iot-%d", g.NumNodes()), q[0], q[1])
		if got, want := near.nearest(d), nearestLinear(g, d, gws); got != want {
			t.Errorf("query %v: grid %v, linear %v", q, g.Node(got).Name, g.Node(want).Name)
		}
	}
	all := NewGraph()
	only := []NodeID{all.MustAddNode(KindGateway, "gw-0", nan, nan), all.MustAddNode(KindGateway, "gw-1", inf, 0)}
	d := all.MustAddNode(KindIoT, "iot", 1, 1)
	if got := newNearestGrid(all, only).nearest(d); got != only[0] {
		t.Errorf("no finite gateway: got %v, want the first", all.Node(got).Name)
	}
}
