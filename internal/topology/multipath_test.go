package topology

import (
	"math"
	"testing"
)

// twoPathGraph: two IoT devices reach the edge via two parallel gateway
// paths of equal latency but limited bandwidth, so single-path routing
// stacks both flows on one path while multipath spreads them.
func twoPathGraph(t *testing.T) (*Graph, *DelayMatrix) {
	t.Helper()
	g := NewGraph()
	i0 := g.MustAddNode(KindIoT, "iot-0", 0, 0)
	i1 := g.MustAddNode(KindIoT, "iot-1", 0, 1)
	gw := g.MustAddNode(KindGateway, "gw", 1, 0)
	ra := g.MustAddNode(KindRouter, "ra", 2, 0)
	rb := g.MustAddNode(KindRouter, "rb", 2, 1)
	e := g.MustAddNode(KindEdge, "edge-0", 3, 0)
	g.MustAddLink(i0, gw, 1, 1000)
	g.MustAddLink(i1, gw, 1, 1000)
	g.MustAddLink(gw, ra, 1, 10)
	g.MustAddLink(gw, rb, 1.0001, 10) // epsilon worse: never chosen by single-path
	g.MustAddLink(ra, e, 1, 10)
	g.MustAddLink(rb, e, 1, 10)
	return g, NewDelayMatrix(g, LatencyCost)
}

func TestMultipathSpreadsLoad(t *testing.T) {
	g, dm := twoPathGraph(t)
	flows := []Flow{
		{IoT: dm.IoT[0], RateHz: 10, PayloadKB: 90}, // 7.2 Mbps each
		{IoT: dm.IoT[1], RateHz: 10, PayloadKB: 90},
	}
	assignment := []int{0, 0}
	single, err := EvaluateCongestion(g, dm, flows, assignment)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := g.EvaluateCongestionMultipath(dm, flows, assignment, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Single-path: both flows share the ra path, 14.4 Mbps on 10 Mbps
	// links -> overloaded. Multipath: one flow detours via rb.
	if len(single.Overloaded) == 0 {
		t.Fatal("single-path routing should overload the shared path")
	}
	if len(multi.Overloaded) != 0 {
		t.Fatalf("multipath still overloaded: %v", multi.Overloaded)
	}
	if multi.MeanDelayMs() >= single.MeanDelayMs() {
		t.Fatalf("multipath mean %v not below single-path %v",
			multi.MeanDelayMs(), single.MeanDelayMs())
	}
	if multi.MaxUtilization() >= single.MaxUtilization() {
		t.Fatalf("multipath max util %v not below single-path %v",
			multi.MaxUtilization(), single.MaxUtilization())
	}
}

func TestMultipathMatchesSinglePathWhenUncongested(t *testing.T) {
	g, dm := twoPathGraph(t)
	flows := []Flow{
		{IoT: dm.IoT[0], RateHz: 1, PayloadKB: 1},
		{IoT: dm.IoT[1], RateHz: 1, PayloadKB: 1},
	}
	assignment := []int{0, 0}
	single, err := EvaluateCongestion(g, dm, flows, assignment)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := g.EvaluateCongestionMultipath(dm, flows, assignment, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single.MeanDelayMs()-multi.MeanDelayMs()) > 0.1 {
		t.Fatalf("uncongested multipath %v diverges from single %v",
			multi.MeanDelayMs(), single.MeanDelayMs())
	}
}

func TestMultipathValidation(t *testing.T) {
	g, dm := twoPathGraph(t)
	flows := []Flow{{IoT: dm.IoT[0], RateHz: 1, PayloadKB: 1}}
	if _, err := g.EvaluateCongestionMultipath(dm, flows, []int{0, 0}, 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := g.EvaluateCongestionMultipath(dm, flows, []int{5}, 2); err == nil {
		t.Error("bad column accepted")
	}
	if _, err := g.EvaluateCongestionMultipath(dm, flows, []int{0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	for _, id := range []NodeID{-1, 99} {
		bad := []Flow{{IoT: id, RateHz: 1, PayloadKB: 1}}
		if _, err := g.EvaluateCongestionMultipath(dm, bad, []int{0}, 2); err == nil {
			t.Errorf("flow endpoint %d accepted", id)
		}
	}
}

func TestMultipathOnGeneratedTopology(t *testing.T) {
	cfg := Config{NumIoT: 20, NumEdge: 3, NumGateways: 6, Seed: 4}
	g, err := Hierarchical(cfg, PlaceHotspot)
	if err != nil {
		t.Fatal(err)
	}
	dm := NewDelayMatrix(g, LatencyCost)
	flows := make([]Flow, 20)
	assignment := make([]int, 20)
	for i := range flows {
		flows[i] = Flow{IoT: dm.IoT[i], RateHz: 5, PayloadKB: 20}
		_, assignment[i] = dm.MinDelay(i)
	}
	res, err := g.EvaluateCongestionMultipath(dm, flows, assignment, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.DelayMs {
		if math.IsInf(d, 0) || math.IsNaN(d) || d <= 0 {
			t.Fatalf("flow %d delay %v", i, d)
		}
	}
}
