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
	// Instance serialization round trips through the facade.
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
}
