package trace

import (
	"testing"

	"taccc/internal/cluster"
	"taccc/internal/obs"
)

// TestEmptyTrace covers a stream that carries no request spans, only a
// phase child and another event kind: it yields no records, and every
// analysis degrades gracefully.
func TestEmptyTrace(t *testing.T) {
	var events []obs.Event
	sink := obs.SinkFunc(func(e obs.Event) { events = append(events, e) })
	obs.EmitSpan(sink, obs.Span{Trace: 1, ID: 2, Parent: 1, Name: "uplink", StartMs: 1, EndMs: 2})
	obs.Emit(sink, "iter", map[string]interface{}{"iter": 0})
	records, err := FromSpanEvents(events)
	if err != nil {
		t.Fatalf("a stream without request spans should read cleanly: %v", err)
	}
	if len(records) != 0 {
		t.Fatalf("%d records from a stream without request spans", len(records))
	}
	s := Summarize(records)
	if s.Completed != 0 || s.Missed != 0 || s.Dropped != 0 || len(s.Latency.Values()) != 0 {
		t.Fatalf("non-zero summary from empty trace: %+v", s)
	}
	if s.MissRate() != 0 {
		t.Fatalf("MissRate() = %v on empty trace", s.MissRate())
	}
	ts, err := TimeSeries(records, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 0 {
		t.Fatalf("%d windows from empty trace", len(ts))
	}
}

func TestSingleRecordWindow(t *testing.T) {
	rec := RequestRecord{
		Device: 3, Edge: 1, SentAtMs: 1200, DoneAtMs: 1212,
		LatencyMs: 12, Outcome: cluster.OutcomeOK,
	}
	ts, err := TimeSeries([]RequestRecord{rec}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Fatalf("%d windows for a single record, want 1", len(ts))
	}
	wp := ts[0]
	if wp.StartMs != 1000 {
		t.Errorf("window starts at %v, want 1000 (bucket of DoneAtMs)", wp.StartMs)
	}
	if wp.Completed != 1 || wp.Dropped != 0 {
		t.Errorf("window counts = %+v, want 1 completed", wp)
	}
	// With one sample, mean and P95 both collapse to the single latency.
	if wp.MeanLatencyMs != 12 || wp.P95Ms != 12 {
		t.Errorf("single-sample stats = mean %v p95 %v, want 12/12", wp.MeanLatencyMs, wp.P95Ms)
	}
}

// TestWindowWiderThanSpan puts every record into one bucket when the
// window dwarfs the trace's time span.
func TestWindowWiderThanSpan(t *testing.T) {
	records := []RequestRecord{
		{Device: 0, Edge: 0, SentAtMs: 10, DoneAtMs: 20, LatencyMs: 10, Outcome: cluster.OutcomeOK},
		{Device: 1, Edge: 0, SentAtMs: 500, DoneAtMs: 530, LatencyMs: 30, Outcome: cluster.OutcomeMissed},
		{Device: 2, Edge: 1, SentAtMs: 900, DoneAtMs: 900, LatencyMs: 0, Outcome: cluster.OutcomeDropped},
	}
	ts, err := TimeSeries(records, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Fatalf("%d windows, want 1 when the window exceeds the span", len(ts))
	}
	wp := ts[0]
	if wp.StartMs != 0 {
		t.Errorf("bucket starts at %v, want 0", wp.StartMs)
	}
	if wp.Completed != 2 || wp.Dropped != 1 {
		t.Errorf("bucket counts = %+v, want 2 completed 1 dropped", wp)
	}
	if wp.MeanLatencyMs != 20 {
		t.Errorf("mean latency %v, want 20 (drops excluded)", wp.MeanLatencyMs)
	}
}
