package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestStreamReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	sink.Emit(Event{Kind: "iter", Fields: map[string]interface{}{
		"algo": "tabu", "iter": 0, "feasible": false,
	}})
	sink.Emit(Event{Kind: "iter", Fields: map[string]interface{}{
		"algo": "tabu", "iter": 1, "feasible": true, "best_cost_ms": 12.5,
	}})
	sink.Emit(Event{Kind: "cell", Fields: map[string]interface{}{
		"algo": "greedy", "rep": 3, "runtime_ms": 0.25, "feasible": true,
	}})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	stored := buf.Bytes()

	events, err := ReadEventStream(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	if events[0].Kind != "iter" || events[2].Kind != "cell" {
		t.Fatalf("kinds = %q, %q", events[0].Kind, events[2].Kind)
	}

	// Typed accessors.
	if algo, ok := events[1].Str("algo"); !ok || algo != "tabu" {
		t.Fatalf("Str(algo) = %q, %v", algo, ok)
	}
	if c, ok := events[1].Num("best_cost_ms"); !ok || c != 12.5 {
		t.Fatalf("Num(best_cost_ms) = %v, %v", c, ok)
	}
	if r, ok := events[2].Int("rep"); !ok || r != 3 {
		t.Fatalf("Int(rep) = %v, %v", r, ok)
	}
	if f, ok := events[2].Bool("feasible"); !ok || !f {
		t.Fatalf("Bool(feasible) = %v, %v", f, ok)
	}

	// Re-encoding a decoded stream must reproduce the stored bytes: this
	// is what lets run archives be rewritten byte-identically.
	var rewrite bytes.Buffer
	for _, e := range events {
		line, err := appendLine(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		rewrite.Write(line)
	}
	if !bytes.Equal(stored, rewrite.Bytes()) {
		t.Fatalf("re-encoded stream differs:\nstored:  %q\nrewrite: %q", stored, rewrite.Bytes())
	}
}

func TestStreamReaderTypedIter(t *testing.T) {
	stream := `{"algo":"qlearning","feasible":false,"iter":0,"kind":"iter"}
{"algo":"qlearning","best_cost_ms":41.25,"feasible":true,"iter":1,"kind":"iter"}
{"kind":"cell","algo":"greedy"}
`
	events, err := ReadEventStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	it, ok := events[0].Iter()
	if !ok || it.Algo != "qlearning" || it.Iter != 0 || it.Feasible {
		t.Fatalf("Iter() = %+v, %v", it, ok)
	}
	if !math.IsInf(it.BestCost, 1) {
		t.Fatalf("infeasible iter BestCost = %v, want +Inf", it.BestCost)
	}
	it, ok = events[1].Iter()
	if !ok || !it.Feasible || it.BestCost != 41.25 || it.Iter != 1 {
		t.Fatalf("Iter() = %+v, %v", it, ok)
	}
	if _, ok := events[2].Iter(); ok {
		t.Fatal("cell event decoded as iter")
	}
}

func TestStreamReaderLatchesFirstError(t *testing.T) {
	stream := `{"kind":"iter","iter":0}
{"kind":"iter","iter":1}
not json at all
{"kind":"iter","iter":3}
`
	sr := NewStreamReader(strings.NewReader(stream))
	n := 0
	for {
		_, ok := sr.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("decoded %d events before the bad record, want 2", n)
	}
	err := sr.Err()
	if err == nil {
		t.Fatal("malformed record did not latch an error")
	}
	if !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("error does not locate the bad record: %v", err)
	}
	// The error stays latched: further Next calls keep failing without
	// resuming past the bad record.
	if _, ok := sr.Next(); ok {
		t.Fatal("Next succeeded after a latched error")
	}
}

func TestStreamReaderMissingKind(t *testing.T) {
	_, err := ReadEventStream(strings.NewReader(`{"algo":"tabu","iter":0}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("missing kind not reported: %v", err)
	}
}

func TestStreamReaderTruncatedRecord(t *testing.T) {
	stream := `{"kind":"iter","iter":0}
{"kind":"iter","it`
	events, err := ReadEventStream(strings.NewReader(stream))
	if len(events) != 1 {
		t.Fatalf("decoded %d events, want 1", len(events))
	}
	if err == nil {
		t.Fatal("truncated record did not error")
	}
}
