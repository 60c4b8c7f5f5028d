package taccc_test

import (
	"bytes"
	"testing"

	taccc "taccc"
)

// TestFacadeWrappers exercises the thin facade functions not covered by
// the flow tests, so regressions in wiring (wrong delegate, swapped args)
// are caught.
func TestFacadeWrappers(t *testing.T) {
	// Serialization round trips through the facade.
	in, err := taccc.SyntheticInstance(taccc.SyntheticUniform, 6, 2, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	in2, err := taccc.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if in2.N() != 6 || in2.M() != 2 {
		t.Fatalf("round trip dims %dx%d", in2.N(), in2.M())
	}
	a, err := taccc.NewAssignment(in, []int{0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	a2, err := taccc.ReadAssignment(&buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a2.Of) != 6 {
		t.Fatalf("assignment round trip length %d", len(a2.Of))
	}

	// Topology construction + serialization.
	g := taccc.NewGraph()
	na, err := g.AddNode(taccc.KindIoT, "a", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := g.AddNode(taccc.KindEdge, "b", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(na, nb, 1, 10); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := taccc.ReadTopology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 2 {
		t.Fatalf("topology round trip nodes %d", g2.NumNodes())
	}

	if len(taccc.Families()) != 8 {
		t.Fatalf("Families() = %d entries", len(taccc.Families()))
	}
	if taccc.SplitSeed(1, "x") == taccc.SplitSeed(1, "y") {
		t.Fatal("SplitSeed does not separate labels")
	}

	// Mobility + infra wrappers.
	w, err := taccc.NewRandomWaypoint(100, 1, 2, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Advance(1000)
	if p.X < 0 || p.X > 100 {
		t.Fatalf("walker out of area: %+v", p)
	}
	infra, err := taccc.HierarchicalInfra(taccc.TopologyConfig{
		NumIoT: 1, NumEdge: 2, NumGateways: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := taccc.AttachIoTAt(infra, []float64{10}, []float64{20}, taccc.LinkParams{}, 1); err != nil {
		t.Fatal(err)
	}
	if err := infra.Validate(); err != nil {
		t.Fatal(err)
	}

	// Solver wrappers.
	built, err := taccc.Scenario{NumIoT: 15, NumEdge: 3, Seed: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	lag, err := taccc.NewLagrangian(4).Assign(built.Instance)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := taccc.NewMinMax(4).Assign(built.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if built.Instance.MaxCost(mm) > built.Instance.MaxCost(lag)+1e-9 {
		t.Logf("minmax max (%v) above lagrangian max (%v) — allowed but unusual",
			built.Instance.MaxCost(mm), built.Instance.MaxCost(lag))
	}
	moves, err := taccc.DiffAssignments(built.Instance, lag, mm)
	if err != nil {
		t.Fatal(err)
	}
	_ = taccc.MigrationGain(moves)
}
