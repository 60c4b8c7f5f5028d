package gap

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"taccc/internal/topology"
)

// goldenBoundInstances are the instances whose bounds are pinned: the
// two synthetic families at a loose and a tight capacity, and one
// topology-derived instance.
func goldenBoundInstances(t *testing.T) map[string]*Instance {
	t.Helper()
	out := map[string]*Instance{}
	for _, sh := range []struct {
		name string
		kind SyntheticKind
		n, m int
		rho  float64
	}{
		{"uniform-200x10", SyntheticUniform, 200, 10, 0.8},
		{"uniform-400x16-tight", SyntheticUniform, 400, 16, 1},
		{"correlated-200x10", SyntheticCorrelated, 200, 10, 0.8},
		{"correlated-400x16-tight", SyntheticCorrelated, 400, 16, 1},
	} {
		in, err := Synthetic(sh.kind, sh.n, sh.m, sh.rho, 21)
		if err != nil {
			t.Fatal(err)
		}
		out[sh.name] = in
	}
	out["topology-300x20"] = topologyInstance(t, topology.FamilyHierarchical, 300, 20, 0.9, 4)
	return out
}

// goldenBoundHashes pins, per instance, the bits of the row-min bound
// and LowerBound and of the Lagrangian bound's value and multipliers at
// 1, 5 and 50 iterations, taken from the nested sequential implementation.
var goldenBoundHashes = map[string]string{
	"uniform-200x10":          "dc8ad859ed2a3a3d",
	"uniform-400x16-tight":    "6a7e99dc9dc86c58",
	"correlated-200x10":       "1a4fadce65b36ee7",
	"correlated-400x16-tight": "92e597de003411ab",
	"topology-300x20":         "8deb539cccd015d7",
}

func hashBounds(in *Instance) string {
	h := fnv.New64a()
	table := NewCandidates(in, 1)
	fmt.Fprintf(h, "row %x\nlower %x\n", math.Float64bits(table.rowMinBound()), math.Float64bits(LowerBound(in)))
	for _, k := range []int{1, 5, 50} {
		v, lambda := table.lagrangianBound(k, 1)
		fmt.Fprintf(h, "lagrangian %d %x", k, math.Float64bits(v))
		for _, l := range lambda {
			fmt.Fprintf(h, " %x", math.Float64bits(l))
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBoundsGolden requires the bounds of every pinned instance to keep
// their bits.
func TestBoundsGolden(t *testing.T) {
	for name, in := range goldenBoundInstances(t) {
		want, ok := goldenBoundHashes[name]
		if !ok {
			t.Fatalf("%s: no pinned hash", name)
		}
		if got := hashBounds(in); got != want {
			t.Errorf("%s: hash %s, pinned %s", name, got, want)
		}
	}
}
