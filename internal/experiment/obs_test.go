package experiment

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"taccc/internal/obs"
)

// lockedSink collects events emitted concurrently from worker goroutines.
type lockedSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *lockedSink) Emit(ev obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
}

func (s *lockedSink) byKind(kind string) []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []obs.Event
	for _, ev := range s.events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func TestObservedComparisonEmitsCellAndAlgoEvents(t *testing.T) {
	sc := Scenario{NumIoT: 20, NumEdge: 4, Seed: 5}
	algos := []string{"greedy", "local-search"}
	const reps = 3
	sink := &lockedSink{}
	res, err := CompareAlgorithmsObserved(sc, algos, reps, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	cells := sink.byKind("cell")
	if len(cells) != len(algos)*reps {
		t.Fatalf("%d cell events, want %d", len(cells), len(algos)*reps)
	}
	seen := map[string]int{}
	for _, ev := range cells {
		algo, _ := ev.Fields["algo"].(string)
		seen[algo]++
		if feasible, _ := ev.Fields["feasible"].(bool); feasible {
			if _, hasCost := ev.Fields["cost_ms"]; !hasCost {
				t.Fatalf("feasible cell without cost_ms: %+v", ev)
			}
		}
	}
	for _, a := range algos {
		if seen[a] != reps {
			t.Fatalf("algo %s has %d cell events, want %d", a, seen[a], reps)
		}
	}
	done := sink.byKind("algo-done")
	if len(done) != len(algos) {
		t.Fatalf("%d algo-done events, want %d", len(done), len(algos))
	}
	// algo-done events come from the sequential fold: order is fixed.
	for i, ev := range done {
		if algo, _ := ev.Fields["algo"].(string); algo != algos[i] {
			t.Fatalf("algo-done %d is %q, want %s", i, algo, algos[i])
		}
	}
	if len(res) != len(algos) {
		t.Fatalf("%d stats, want %d", len(res), len(algos))
	}
}

// TestObservedComparisonIsDeterministic checks the headline contract:
// attaching a sink changes nothing, at any worker count.
func TestObservedComparisonIsDeterministic(t *testing.T) {
	sc := Scenario{NumIoT: 30, NumEdge: 5, Seed: 7}
	algos := []string{"greedy", "local-search", "qlearning"}
	const reps = 2
	want, err := CompareAlgorithmsWorkers(sc, algos, reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		sink := &lockedSink{}
		got, err := CompareAlgorithmsObserved(sc, algos, reps, workers, sink)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(stripRuntimes(want), stripRuntimes(got)) {
			t.Fatalf("workers=%d: sink changed results:\n%+v\nvs\n%+v", workers, want, got)
		}
		if len(sink.byKind("cell")) != len(algos)*reps {
			t.Fatalf("workers=%d: missing cell events", workers)
		}
	}
}

func TestRunAllEmitsSpecEvents(t *testing.T) {
	specs := []Spec{mustSpec(t, "F1"), mustSpec(t, "F6")}
	sink := &lockedSink{}
	o := Options{Quick: true, Reps: 1, Progress: sink}
	results := RunAll(specs, o)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.ID, r.Err)
		}
	}
	starts, dones := sink.byKind("spec-start"), sink.byKind("spec-done")
	if len(starts) != len(specs) || len(dones) != len(specs) {
		t.Fatalf("%d spec-start / %d spec-done events, want %d each", len(starts), len(dones), len(specs))
	}
	for _, ev := range dones {
		if ok, _ := ev.Fields["ok"].(bool); !ok {
			t.Fatalf("spec-done reports failure: %+v", ev)
		}
		if _, has := ev.Fields["elapsed_ms"]; !has {
			t.Fatalf("spec-done missing elapsed_ms: %+v", ev)
		}
	}
}

// TestCellEventsStreamAsJSONL wires the real JSONL sink under the
// comparison — the tacbench -events path — and checks the stream decodes
// through the shared reader.
func TestCellEventsStreamAsJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	_, err := CompareAlgorithmsObserved(Scenario{NumIoT: 20, NumEdge: 4, Seed: 5}, []string{"greedy"}, 3, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEventStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 { // 3 cells + 1 algo-done
		t.Fatalf("%d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Kind == "" {
			t.Fatalf("event %d has no kind: %+v", i, e)
		}
	}
}

func TestStatCellAnnotations(t *testing.T) {
	cases := []struct {
		st   AlgoStat
		want string
	}{
		{AlgoStat{MeanCost: 12.5, FeasibleRate: 1}, "12.500"},
		{AlgoStat{MeanCost: 12.5, FeasibleRate: 0.5}, "12.500 (50% feas)"},
		{AlgoStat{MeanCost: 12.5, FeasibleRate: 0.75, Errors: 1}, "12.500 (75% feas) [1 err]"},
		{AlgoStat{FeasibleRate: 0, Errors: 3}, "- (0% feas) [3 err]"},
	}
	for _, tc := range cases {
		if got := statCell(tc.st); got != tc.want {
			t.Errorf("statCell(%+v) = %q, want %q", tc.st, got, tc.want)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{ID: "T9", Title: "demo", Header: []string{"a", "b"}, Note: "units"}
	tab.AddRow("x", 1.5)
	md := tab.Markdown()
	for _, want := range []string{"### T9: demo", "| a | b |", "| --- | --- |", "| x | 1.500 |", "_units_"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
}
