package assign

import (
	"reflect"
	"testing"

	"taccc/internal/gap"
	"taccc/internal/obs"
)

func phasesTestInstance(t *testing.T) *gap.Instance {
	t.Helper()
	in, err := gap.Synthetic(gap.SyntheticUniform, 40, 5, 0.8, 11)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestWithPhasesResultsBitIdentical pins the tracing carve-out on the
// solver side: attaching a phase tracer must not change any assignment.
func TestWithPhasesResultsBitIdentical(t *testing.T) {
	in := phasesTestInstance(t)
	mks := map[string]func() Assigner{
		"tabu":         func() Assigner { return NewTabuSearch(42) },
		"lns":          func() Assigner { return NewLNS(42) },
		"local-search": func() Assigner { return NewLocalSearch(42) },
		"minmax":       func() Assigner { return NewMinMax(42) },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			plain := mk()
			want, err := plain.Assign(in)
			if err != nil {
				t.Fatal(err)
			}
			traced := mk()
			var col obs.SpanCollector
			tr := obs.NewTracer(&col, obs.WallClock())
			root := tr.Root("solve")
			if !WithPhases(traced, root) {
				t.Fatalf("%s does not implement PhasedSolver", name)
			}
			got, err := traced.Assign(in)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Of, want.Of) {
				t.Fatalf("%s: assignment differs with tracing attached", name)
			}
			if len(col.Spans()) == 0 {
				t.Fatalf("%s: no phase spans emitted", name)
			}
		})
	}
}

// TestSolverPhaseNames checks each solver emits its documented phases,
// parented under the span WithPhases attached.
func TestSolverPhaseNames(t *testing.T) {
	in := phasesTestInstance(t)
	cases := []struct {
		mk   func() Assigner
		want []string
	}{
		{func() Assigner { return NewTabuSearch(42) }, []string{"construction", "improvement"}},
		{func() Assigner { return NewLNS(42) }, []string{"construction", "improvement", "repair"}},
		{func() Assigner { return NewLocalSearch(42) }, []string{"construction", "improvement"}},
		{func() Assigner { return NewMinMax(42) }, []string{"construction", "polish"}},
	}
	for _, tc := range cases {
		a := tc.mk()
		t.Run(a.Name(), func(t *testing.T) {
			var col obs.SpanCollector
			tr := obs.NewTracer(&col, obs.WallClock())
			root := tr.Root("solve")
			WithPhases(a, root)
			if _, err := a.Assign(in); err != nil {
				t.Fatal(err)
			}
			root.End()
			names := map[string]bool{}
			for _, sp := range col.Spans() {
				names[sp.Name] = true
				if sp.Name != "solve" && sp.Parent == 0 {
					t.Fatalf("phase span %q has no parent", sp.Name)
				}
			}
			for _, w := range tc.want {
				if !names[w] {
					t.Fatalf("missing %q span; got %v", w, names)
				}
			}
		})
	}
}

// TestWithPhasesNonPhasedSolver: greedy has no phases; WithPhases must
// report false and leave it untouched.
func TestWithPhasesNonPhasedSolver(t *testing.T) {
	if WithPhases(NewGreedy(), nil) {
		t.Fatal("greedy unexpectedly implements PhasedSolver")
	}
}
