// Package obs is the repository's zero-dependency observability layer:
// a metrics registry (counters, gauges, fixed-bucket histograms), a
// structured event stream for solver and experiment progress, and
// profiling hooks.
//
// Everything here follows one contract: instrumentation is optional,
// nil-safe and off by default. A nil *Registry hands out nil metrics whose
// methods no-op; emitting into a nil Sink or ProgressSink is a no-op; no
// hook ever touches the instrumented code's random streams or results, so
// runs with and without observability attached are bit-identical (the
// workers=1 vs workers=8 determinism guarantees of internal/par are
// preserved with sinks attached).
//
// All mutation paths are safe under the internal/par worker pool: metric
// updates are atomic, registration and the JSONL sink serialize behind a
// mutex. Event *ordering* across concurrent emitters is not deterministic —
// events carry their own identifying fields (algo, rep, iter) instead.
package obs

import (
	"bufio"
	"io"
	"os"
	"sync"
)

// Event is one structured observation. Kind names the event type ("iter",
// "cell", "spec-start", ...); Fields carry the payload. Field values must
// be JSON-serializable (strings, bools, finite numbers).
//
// A live span event (from Span.Event, EmitSpan or a tracer Phase) carries
// its Span by value as a typed payload instead and has nil Fields, so
// building one allocates nothing; SpanFromEvent is how sinks read it.
// Spans decoded from a stream arrive as Fields.
type Event struct {
	Kind   string
	Fields map[string]interface{}

	// span is the payload of a live span event, which live marks.
	span Span
	live bool
}

// Sink consumes events. Implementations must be safe for concurrent use;
// events can arrive from worker-pool goroutines.
type Sink interface {
	Emit(Event)
}

// Emit sends an event into s, tolerating a nil sink.
func Emit(s Sink, kind string, fields map[string]interface{}) {
	if s == nil {
		return
	}
	s.Emit(Event{Kind: kind, Fields: fields})
}

// NullSink discards every event — the explicit "off" implementation.
type NullSink struct{}

// Emit implements Sink.
func (NullSink) Emit(Event) {}

// SinkFunc adapts a function to the Sink interface. The function must be
// safe for concurrent calls.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// MultiSink fans each event out to every non-nil sink in order.
func MultiSink(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiSink(kept)
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// CountEvents wraps next so that every event also increments the counter
// "events.<kind>" in r — a cheap way to keep a live tally of an event
// stream in a metrics registry. next may be nil (count only).
func CountEvents(r *Registry, next Sink) Sink {
	return SinkFunc(func(e Event) {
		r.Counter("events." + e.Kind).Inc()
		if next != nil {
			next.Emit(e)
		}
	})
}

// JSONL streams events as JSON Lines: one object per event with the kind
// under "kind" plus the event's fields. Writes are serialized behind a
// mutex so worker-pool goroutines can share one sink; the first
// marshal/write error is latched and reported by Close.
type JSONL struct {
	mu     sync.Mutex
	w      *bufio.Writer
	file   io.Closer // the file CreateJSONL opened; nil for NewJSONL
	closed bool
	buf    []byte // the line being encoded, reused across events
	err    error
}

// NewJSONL wraps w in a buffered JSONL sink. Call Close before closing
// the underlying writer.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// CreateJSONL creates (or truncates) path and returns a JSONL sink that
// owns the file: Close flushes and closes it. Every JSONL file a tool
// writes is opened here.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewJSONL(f)
	s.file = f
	return s, nil
}

// Emit implements Sink. A nil *JSONL discards the event, so disabled
// streams can flow through MultiSink as typed nils without harm.
func (s *JSONL) Emit(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	// appendLine sorts object keys, so lines are deterministic per event.
	var err error
	if s.buf, err = appendLine(s.buf[:0], e); err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// Close flushes the stream and closes the file CreateJSONL opened,
// returning the first error of the stream's lifetime, a write error
// latched during Emit included: a stream whose bytes did not reach disk
// must fail its run. It is idempotent and nil-safe, so it can be
// deferred as a backstop and also called to check the error.
func (s *JSONL) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.err
	if err == nil {
		err = s.w.Flush()
	}
	if s.file != nil {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
