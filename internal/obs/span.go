package obs

import "strings"

// Span is one timed phase of a traced operation, in simulated or wall
// time (the emitter decides; this repository's cluster simulator uses
// virtual milliseconds). A trace is a root span (Parent == 0) plus child
// spans sharing its Trace ID — the cluster simulator emits one trace per
// sampled request with children for uplink, queue wait, service and
// downlink, so every request's latency is attributable phase by phase.
type Span struct {
	// Trace groups the spans of one traced operation.
	Trace TraceID
	// ID identifies this span within its trace.
	ID SpanID
	// Parent is the enclosing span's ID; 0 marks the root span.
	Parent SpanID
	// Name labels the phase ("request", "uplink", "queue", ...).
	Name string
	// StartMs and EndMs bound the span (EndMs >= StartMs).
	StartMs float64
	EndMs   float64
	// Attrs carries typed span attributes; values must be
	// JSON-serializable (strings, bools, finite numbers).
	Attrs map[string]interface{}
}

// TraceID identifies one trace (one traced request).
type TraceID uint64

// SpanID identifies a span within a trace.
type SpanID uint64

// DurationMs returns the span's length.
func (sp Span) DurationMs() float64 { return sp.EndMs - sp.StartMs }

// Event renders the span as a Sink event of kind "span". The span rides
// as the event's typed payload (Fields is nil); SpanFromEvent reads it
// back and the JSONL encoding writes it as the object trace, span,
// parent (omitted for roots), name, start_ms/end_ms/dur_ms and each
// attribute under an "attr."-prefixed key, in sorted key order, so a
// deterministic span sequence serializes byte-identically. Sinks share
// the Attrs map, so an emitter must not change it after emitting.
func (sp Span) Event() Event {
	return Event{Kind: "span", span: sp, live: true}
}

// EmitSpan sends sp into s, tolerating a nil sink.
func EmitSpan(s Sink, sp Span) {
	if s == nil {
		return
	}
	s.Emit(sp.Event())
}

// SpanFromEvent inverts Span.Event: it returns a live event's span
// payload, or decodes a "span" event read back from a JSONL stream into
// a Span. It is the one reader of span events. ok is false for any
// other kind or when a decoded event's required field is
// missing/mistyped. Decoded attribute values keep their stream
// representation (json.Number); read them through AttrNum/AttrStr.
func SpanFromEvent(e Event) (Span, bool) {
	if e.Kind != "span" {
		return Span{}, false
	}
	if e.live {
		return e.span, true
	}
	tr, ok := e.Int("trace")
	if !ok {
		return Span{}, false
	}
	id, ok := e.Int("span")
	if !ok {
		return Span{}, false
	}
	name, ok := e.Str("name")
	if !ok {
		return Span{}, false
	}
	start, ok := e.Num("start_ms")
	if !ok {
		return Span{}, false
	}
	end, ok := e.Num("end_ms")
	if !ok {
		return Span{}, false
	}
	sp := Span{Trace: TraceID(tr), ID: SpanID(id), Name: name, StartMs: start, EndMs: end}
	if p, ok := e.Int("parent"); ok {
		sp.Parent = SpanID(p)
	}
	for k, v := range e.Fields {
		if strings.HasPrefix(k, "attr.") {
			if sp.Attrs == nil {
				sp.Attrs = make(map[string]interface{}, 4)
			}
			sp.Attrs[strings.TrimPrefix(k, "attr.")] = v
		}
	}
	return sp, true
}

// SpansFromEvents extracts every decodable span from an event stream,
// in stream order.
func SpansFromEvents(events []Event) []Span {
	var out []Span
	for _, e := range events {
		if sp, ok := SpanFromEvent(e); ok {
			out = append(out, sp)
		}
	}
	return out
}

// AttrNum returns a span attribute as a float64 (coercing json.Number
// from decoded streams and native numerics from live spans).
func (sp Span) AttrNum(key string) (float64, bool) { return numValue(sp.Attrs[key]) }

// AttrStr returns a span attribute as a string.
func (sp Span) AttrStr(key string) (string, bool) {
	v, ok := sp.Attrs[key].(string)
	return v, ok
}
