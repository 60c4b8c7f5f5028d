package topology

import (
	"fmt"
	"reflect"
	"testing"
)

// genParallelTestGraph builds a mid-sized hierarchical deployment for the
// parallel-kernel determinism tests.
func genParallelTestGraph(t testing.TB, seed int64) *Graph {
	t.Helper()
	g, err := Generate(FamilyHierarchical, Config{
		NumIoT: 120, NumEdge: 12, NumGateways: 24, NumRouters: 12, Seed: seed,
	}, PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewDelayMatrixWorkersDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		g := genParallelTestGraph(t, seed)
		want := NewDelayMatrixWorkers(g, LatencyCost, 1)
		for _, workers := range []int{2, 8} {
			got := NewDelayMatrixWorkers(g, LatencyCost, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: DelayMatrix at workers=%d differs from sequential", seed, workers)
			}
		}
		if !reflect.DeepEqual(NewDelayMatrix(g, LatencyCost), want) {
			t.Fatalf("seed %d: default NewDelayMatrix differs from sequential", seed)
		}
	}
}

// multiHomedGraph is a hierarchical deployment in which every fifth
// device also links to a second gateway, so it stays in the core while
// its neighbours are filled as pendants.
func multiHomedGraph(t testing.TB, seed int64) *Graph {
	t.Helper()
	g := genParallelTestGraph(t, seed)
	gws := g.NodesOfKind(KindGateway)
	for k, d := range g.NodesOfKind(KindIoT) {
		if k%5 != 0 {
			continue
		}
		gw := gws[k%len(gws)]
		if _, linked := g.LinkBetween(d, gw); linked {
			gw = gws[(k+1)%len(gws)]
		}
		g.MustAddLink(d, gw, 1.5+float64(k%7)/8, 50)
	}
	return g
}

// TestDelayMatrixBitsAcrossWorkers pins the parallel row fill: at 1, 2
// and 8 workers every cell has the same bits as the full-Dijkstra
// reference, under both cost models, with and without multi-homed
// devices among the pendant ones.
func TestDelayMatrixBitsAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		graphs := map[string]*Graph{
			"pendant":     genParallelTestGraph(t, seed),
			"multi-homed": multiHomedGraph(t, seed),
		}
		for name, g := range graphs {
			for _, cost := range []LinkCost{LatencyCost, PayloadCost(64)} {
				want := referenceDelayMatrix(g, cost)
				for _, workers := range []int{1, 2, 8} {
					if err := sameMatrixBits(NewDelayMatrixWorkers(g, cost, workers), want); err != nil {
						t.Fatalf("seed %d, %s graph, %d workers: %v", seed, name, workers, err)
					}
				}
			}
		}
	}
}

// TestDelayMatrixNegativeAccessCostPanicsOnCaller pins where and how a
// negative device access cost fails at 8 workers: the panic reaches the
// caller's goroutine, where recover catches it, and names the first bad
// link in row order, as the sequential fill did. Two devices have a bad
// link: one out of its gateway and, earlier in row order, one back to
// it.
func TestDelayMatrixNegativeAccessCostPanicsOnCaller(t *testing.T) {
	g := genParallelTestGraph(t, 1)
	iot := g.NodesOfKind(KindIoT)
	early, late := iot[40], iot[100]
	gwEarly, gwLate := g.Neighbors(early)[0], g.Neighbors(late)[0]
	cost := func(l Link) float64 {
		if (l.A == early && l.B == gwEarly) || (l.A == gwLate && l.B == late) {
			return -0.25
		}
		return l.LatencyMs
	}
	want := fmt.Sprintf("topology: negative link cost -0.25 on %d-%d", early, gwEarly)
	var got interface{}
	func() {
		defer func() { got = recover() }()
		NewDelayMatrixWorkers(g, cost, 8)
	}()
	if got != want {
		t.Fatalf("panic %v, want %q", got, want)
	}
}
