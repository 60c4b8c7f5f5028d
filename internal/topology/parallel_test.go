package topology

import (
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
