package topology

import (
	"container/heap"
	"testing"

	"taccc/internal/xrand"
)

// refQueue is pq under container/heap, the order the typed heap must
// reproduce.
type refQueue []pqItem

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestPQSiftsAsContainerHeap drives the typed heap and container/heap
// through the same pushes and pops, with distances drawn from a few
// values so that ties are common, and requires every pop to return the
// same item: equal distances must leave in container/heap's order, or a
// shortest-path tree could pick another predecessor.
func TestPQSiftsAsContainerHeap(t *testing.T) {
	src := xrand.NewSplit(3, "pq-order")
	var q pq
	ref := &refQueue{}
	for step := 0; step < 20000; step++ {
		if len(q) == 0 || src.Float64() < 0.55 {
			it := pqItem{node: NodeID(step), dist: float64(src.Intn(6))}
			q.push(it)
			heap.Push(ref, it)
			continue
		}
		got, want := q.pop(), heap.Pop(ref).(pqItem)
		if got != want {
			t.Fatalf("step %d: pop = %+v, container/heap pops %+v", step, got, want)
		}
	}
	if len(q) != ref.Len() {
		t.Fatalf("%d items left, container/heap has %d", len(q), ref.Len())
	}
}

// TestDelayMatrixStore requires the package's delay matrices to keep
// their rows as views of one row-major store, and Store to hand that
// store out only while every row still is one.
func TestDelayMatrixStore(t *testing.T) {
	g, dm := congGraph(t)
	cam, err := CongestionAwareDelayMatrix(g, dm, []Flow{{IoT: dm.IoT[0], RateHz: 1, PayloadKB: 1}, {IoT: dm.IoT[1], RateHz: 1, PayloadKB: 1}}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*DelayMatrix{"NewDelayMatrix": dm, "CongestionAwareDelayMatrix": cam} {
		s := m.Store()
		if len(s) != m.NumIoT()*m.NumEdge() {
			t.Fatalf("%s: Store has %d cells, want %d", name, len(s), m.NumIoT()*m.NumEdge())
		}
		for i, row := range m.DelayMs {
			if &row[0] != &s[i*m.NumEdge()] {
				t.Errorf("%s: row %d is not a view of the store", name, i)
			}
		}
	}

	hand := &DelayMatrix{IoT: dm.IoT, Edge: dm.Edge, DelayMs: [][]float64{{1}, {2}}}
	if hand.Store() != nil {
		t.Error("a hand-built matrix has a store")
	}
	replaced := NewDelayMatrix(g, LatencyCost)
	replaced.DelayMs[1] = []float64{7}
	if replaced.Store() != nil {
		t.Error("a matrix with a replaced row still hands out its store")
	}
	truncated := NewDelayMatrix(g, LatencyCost)
	truncated.DelayMs = truncated.DelayMs[:1]
	if truncated.Store() != nil {
		t.Error("a matrix with a dropped row still hands out its store")
	}
}

// TestDelayMatrixAllocsPerEdgeSource pins the delay matrix to a bounded
// number of allocations per edge source: each Dijkstra's queue holds its
// items by value, so a relaxation allocates nothing. 40 edge sources
// over a 160-node core relax about 13,000 times.
func TestDelayMatrixAllocsPerEdgeSource(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	const k = 40
	g, err := Hierarchical(Config{NumIoT: 400, NumEdge: k, NumGateways: 2 * k, NumRouters: k, Seed: 1}, PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(3, func() { NewDelayMatrixWorkers(g, LatencyCost, 1) })
	if limit := float64(16*k + 64); got > limit {
		t.Errorf("NewDelayMatrix allocates %.0f times for %d edge sources, want at most %.0f", got, k, limit)
	}
}
