package assign

import (
	"math"
	"reflect"
	"testing"

	"taccc/internal/gap"
	"taccc/internal/obs"
)

// collectIters gathers a solver's iteration stream (single-goroutine
// solvers emit sequentially, so no locking is needed).
func collectIters() (*[]obs.IterEvent, obs.ProgressSink) {
	events := &[]obs.IterEvent{}
	return events, obs.ProgressFunc(func(ev obs.IterEvent) { *events = append(*events, ev) })
}

func progressInstance(t *testing.T) *gap.Instance {
	t.Helper()
	in, err := gap.Synthetic(gap.SyntheticUniform, 30, 5, 0.7, 7)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestWithProgressAttachesToIterativeAssigners(t *testing.T) {
	sink := obs.ProgressFunc(func(obs.IterEvent) {})
	for _, a := range []Assigner{
		NewQLearning(1), NewTabuSearch(1), NewLNS(1),
	} {
		if !WithProgress(a, sink) {
			t.Errorf("%s should report progress", a.Name())
		}
	}
	if WithProgress(NewGreedy(), sink) {
		t.Error("greedy is not iterative; WithProgress should refuse")
	}
}

func TestProgressStreamsAreConvergenceCurves(t *testing.T) {
	in := progressInstance(t)
	cases := []struct {
		algo  string
		make  func() Assigner
		iters int
	}{
		{"qlearning", func() Assigner { return NewQLearning(3) }, 400},
		{"tabu", func() Assigner { return NewTabuSearch(3) }, 0}, // move count varies (early stop)
		{"lns", func() Assigner { return NewLNS(3) }, 60},
	}
	for _, tc := range cases {
		events, sink := collectIters()
		a := tc.make()
		WithProgress(a, sink)
		if _, err := a.Assign(in); err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		if len(*events) == 0 {
			t.Fatalf("%s: no iteration events", tc.algo)
		}
		if tc.iters > 0 && len(*events) != tc.iters {
			t.Errorf("%s: %d events, want %d", tc.algo, len(*events), tc.iters)
		}
		prev := math.Inf(1)
		for k, ev := range *events {
			if ev.Algo != tc.algo {
				t.Fatalf("%s: event %d has algo %q", tc.algo, k, ev.Algo)
			}
			if ev.Iter != k {
				t.Fatalf("%s: event %d has iter %d", tc.algo, k, ev.Iter)
			}
			if ev.Feasible && ev.BestCost > prev+1e-9 {
				t.Fatalf("%s: best cost regressed at iter %d: %v -> %v", tc.algo, k, prev, ev.BestCost)
			}
			if ev.Feasible {
				prev = ev.BestCost
			}
		}
	}
}

// TestProgressDoesNotPerturbResults is the instrumentation contract: a
// solver with a sink attached returns exactly what it returns without one.
func TestProgressDoesNotPerturbResults(t *testing.T) {
	in := progressInstance(t)
	makers := map[string]func() Assigner{
		"qlearning": func() Assigner { return NewQLearning(11) },
		"tabu":      func() Assigner { return NewTabuSearch(11) },
		"lns":       func() Assigner { return NewLNS(11) },
	}
	for name, mk := range makers {
		plain := mk()
		want, err := plain.Assign(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		observed := mk()
		_, sink := collectIters()
		WithProgress(observed, sink)
		got, err := observed.Assign(in)
		if err != nil {
			t.Fatalf("%s with sink: %v", name, err)
		}
		if !reflect.DeepEqual(want.Of, got.Of) {
			t.Fatalf("%s: sink perturbed the assignment:\n%v\nvs\n%v", name, want.Of, got.Of)
		}
	}
}
