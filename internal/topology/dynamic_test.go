package topology

import (
	"bytes"
	"testing"
)

func TestClone(t *testing.T) {
	g, err := Hierarchical(baseCfg(8), PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	var bg, bc bytes.Buffer
	if err := g.WriteJSON(&bg); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSON(&bc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bg.Bytes(), bc.Bytes()) {
		t.Fatal("clone differs from original")
	}
	// Mutating the clone must not affect the original.
	c.MustAddNode(KindRouter, "extra", 0, 0)
	if g.NumNodes() == c.NumNodes() {
		t.Fatal("clone shares node storage")
	}
	if _, err := g.AddNode(KindRouter, "extra", 0, 0); err != nil {
		t.Fatalf("clone shares name index: %v", err)
	}
}

func TestHierarchicalInfraAndAttach(t *testing.T) {
	cfg := Config{NumIoT: 1, NumEdge: 4, NumGateways: 6, Seed: 3}
	infra, err := HierarchicalInfra(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(infra.NodesOfKind(KindIoT)); got != 0 {
		t.Fatalf("infra has %d IoT nodes, want 0", got)
	}
	if got := len(infra.NodesOfKind(KindEdge)); got != 4 {
		t.Fatalf("infra has %d edges, want 4", got)
	}
	if !infra.Connected() {
		t.Fatal("infra not connected")
	}

	g := infra.Clone()
	xs := []float64{100, 2000, 4000}
	ys := []float64{100, 2500, 4900}
	if err := AttachIoTAt(g, xs, ys, LinkParams{}, 7); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("attached graph invalid: %v", err)
	}
	dm := NewDelayMatrix(g, LatencyCost)
	if dm.NumIoT() != 3 || dm.NumEdge() != 4 {
		t.Fatalf("matrix dims %dx%d", dm.NumIoT(), dm.NumEdge())
	}
	// Infra untouched.
	if len(infra.NodesOfKind(KindIoT)) != 0 {
		t.Fatal("attaching to clone mutated infra")
	}
}

func TestAttachIoTAtErrors(t *testing.T) {
	cfg := Config{NumIoT: 1, NumEdge: 2, NumGateways: 2, Seed: 1}
	infra, err := HierarchicalInfra(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachIoTAt(infra.Clone(), []float64{1, 2}, []float64{1}, LinkParams{}, 1); err == nil {
		t.Error("mismatched coordinate lengths accepted")
	}
	empty := NewGraph()
	if err := AttachIoTAt(empty, []float64{1}, []float64{1}, LinkParams{}, 1); err == nil {
		t.Error("graph without gateways accepted")
	}
	g := infra.Clone()
	if err := AttachIoTAt(g, []float64{1}, []float64{1}, LinkParams{}, 1); err != nil {
		t.Fatal(err)
	}
	// Attaching again with the same names must fail.
	if err := AttachIoTAt(g, []float64{2}, []float64{2}, LinkParams{}, 1); err == nil {
		t.Error("duplicate IoT names accepted")
	}
}

func TestHierarchicalInfraValidation(t *testing.T) {
	if _, err := HierarchicalInfra(Config{NumEdge: 0, NumGateways: 2}); err == nil {
		t.Error("NumEdge 0 accepted")
	}
	if _, err := HierarchicalInfra(Config{NumEdge: 2, NumGateways: 0}); err == nil {
		t.Error("NumGateways 0 accepted")
	}
}
