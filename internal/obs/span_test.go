package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"taccc/internal/par"
)

func TestSpanEventFields(t *testing.T) {
	sp := Span{
		Trace: 7, ID: 3, Parent: 1, Name: "service",
		StartMs: 10, EndMs: 14.5,
		Attrs: map[string]interface{}{"edge": 2, "outcome": "ok"},
	}
	e := sp.Event()
	if e.Kind != "span" || e.Fields != nil {
		t.Fatalf("span event = %+v, want kind span and nil Fields", e)
	}
	if got, ok := SpanFromEvent(e); !ok || !reflect.DeepEqual(got, sp) {
		t.Fatalf("SpanFromEvent = %+v, %v; want %+v", got, ok, sp)
	}
	const want = `{"attr.edge":2,"attr.outcome":"ok","dur_ms":4.5,"end_ms":14.5,"kind":"span","name":"service","parent":1,"span":3,"start_ms":10,"trace":7}` + "\n"
	if line, err := appendLine(nil, e); err != nil || string(line) != want {
		t.Fatalf("span line = %q, %v; want %q", line, err, want)
	}
	if sp.DurationMs() != 4.5 {
		t.Fatalf("DurationMs = %v", sp.DurationMs())
	}

	root := Span{Trace: 7, ID: 1, Name: "request", StartMs: 0, EndMs: 20}
	line, err := appendLine(nil, root.Event())
	if err != nil || strings.Contains(string(line), `"parent"`) {
		t.Fatalf("root span must omit the parent field: %q, %v", line, err)
	}
}

func TestEmitSpanThroughJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	EmitSpan(nil, Span{Trace: 1, ID: 1, Name: "request"}) // nil sink: no-op
	EmitSpan(s, Span{Trace: 1, ID: 2, Parent: 1, Name: "uplink", StartMs: 0, EndMs: 3})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("span line not JSON: %v\n%s", err, buf.String())
	}
	if m["kind"] != "span" || m["name"] != "uplink" || m["dur_ms"] != 3.0 {
		t.Fatalf("bad span line: %q", buf.String())
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	one := NewHistogram([]float64{10}) // one bound, one overflow bucket
	one.Observe(5)
	oneSnap := one.snapshot()

	multi := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		multi.Observe(v)
	}
	multiSnap := multi.snapshot()

	cases := []struct {
		name string
		snap HistogramSnapshot
		q    float64
		want float64
	}{
		{"empty p50", HistogramSnapshot{}, 0.5, 0},
		{"empty p0", HistogramSnapshot{}, 0, 0},
		{"empty q>1", HistogramSnapshot{}, 2, 0},
		{"one-bucket p50", oneSnap, 0.5, 10},
		{"one-bucket p100", oneSnap, 1, 10},
		{"q below 0 clamps", multiSnap, -3, 1},
		{"q above 1 clamps", multiSnap, 7, math.Inf(1)},
		{"NaN q clamps to 0", multiSnap, math.NaN(), 1},
		{"p25", multiSnap, 0.25, 1},
		{"p75", multiSnap, 0.75, 100},
	}
	for _, tc := range cases {
		got := tc.snap.Quantile(tc.q)
		if math.IsNaN(got) {
			t.Errorf("%s: Quantile returned NaN", tc.name)
			continue
		}
		if got != tc.want && !(math.IsInf(tc.want, 1) && math.IsInf(got, 1)) {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestMultiSinkCountEventsConcurrent hammers one fan-out pipeline from many
// goroutines under -race: CountEvents in front of a MultiSink over a JSONL
// sink plus a plain functional sink.
func TestMultiSinkCountEventsConcurrent(t *testing.T) {
	const n = 4000
	reg := NewRegistry()
	var buf bytes.Buffer
	jsonl := NewJSONL(&buf)
	var forwarded atomic.Int64
	sink := CountEvents(reg, MultiSink(jsonl, SinkFunc(func(Event) { forwarded.Add(1) }), NullSink{}))
	kinds := []string{"span", "iter", "cell"}
	par.For(16, n, func(i int) {
		Emit(sink, kinds[i%len(kinds)], map[string]interface{}{"i": i})
	})
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	var counted int64
	for _, k := range kinds {
		c := reg.Counter("events." + k).Value()
		if c == 0 {
			t.Errorf("no events.%s counted", k)
		}
		counted += c
	}
	if counted != n {
		t.Fatalf("counted %d events, want %d", counted, n)
	}
	if forwarded.Load() != n {
		t.Fatalf("forwarded %d events, want %d", forwarded.Load(), n)
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != n {
		t.Fatalf("JSONL wrote %d lines, want %d", got, n)
	}
}

// allocSink holds the sink TestEmitSpanAllocs emits into. A package
// variable keeps the compiler from devirtualizing Emit, so spans and
// maps escape to the heap as they do behind Config.Spans.
var allocSink Sink

// TestEmitSpanAllocs pins the span plane's hot path: a span, or an
// iteration event with its field map, reaches JSONL bytes without a map
// copy, reflection or per-line buffer, and a span event carries its span
// by value, so a child span allocates nothing. The allocations left are
// the emitter's own, so the JSONL sink costs no more than a sink that
// drops the event: the attrs or fields map (two), and boxing a string or
// float64. Go boxes ints below 256 without allocating; a larger device
// ID or iteration index adds one allocation to both sinks.
func TestEmitSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	dev, edge, iter, outcome := 17, 3, 7, "missed"
	start, end := 1520.375, 1529.0625
	progress := EventProgress(SinkFunc(func(e Event) { allocSink.Emit(e) }))
	cases := []struct {
		name string
		max  float64
		emit func()
	}{
		{"child span", 0, func() {
			EmitSpan(allocSink, Span{Trace: 4321, ID: 3, Parent: 1, Name: "queue", StartMs: start, EndMs: end})
		}},
		{"root span with attrs", 3, func() {
			EmitSpan(allocSink, Span{
				Trace: 4321, ID: 1, Name: "request", StartMs: start, EndMs: end,
				Attrs: map[string]interface{}{"device": dev, "edge": edge, "outcome": outcome},
			})
		}},
		{"iteration event", 4, func() { EmitIter(progress, "tabu", iter, end, true) }},
	}
	jsonl := NewJSONL(io.Discard)
	for _, tc := range cases {
		allocSink = SinkFunc(func(Event) {})
		dropped := testing.AllocsPerRun(100, tc.emit)
		allocSink = jsonl
		got := testing.AllocsPerRun(100, tc.emit)
		if got > tc.max || got > dropped {
			t.Errorf("%s: %.0f allocations per event into JSONL, want at most %.0f and at most a dropping sink's %.0f",
				tc.name, got, tc.max, dropped)
		}
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
}
