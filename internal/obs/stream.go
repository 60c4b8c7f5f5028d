package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// appendLine appends e's canonical line to dst (trailing newline
// included): the event's fields plus the kind under "kind", as one JSON
// object with its keys in sorted order. It is the one line encoder; the
// JSONL sink writes through it, so emitting a decoded stream back into a
// JSONL reproduces the stored bytes (how run archives are rewritten).
// The bytes are exactly what json.Marshal writes for the same object —
// a map holding the fields plus "kind", which json.Marshal sorts by key
// — but without the map copy or the reflection: a typed span writes its
// fixed key order, and any other event sorts its field names and writes
// each value through appendValue. On error dst is returned unfinished
// and must be discarded.
func appendLine(dst []byte, e Event) ([]byte, error) {
	if e.live {
		return appendSpanLine(dst, &e.span)
	}
	var names [16]string
	keys := names[:0]
	for k := range e.Fields {
		if k != "kind" {
			keys = append(keys, k)
		}
	}
	keys = append(keys, "kind")
	slices.Sort(keys)
	dst = append(dst, '{')
	var err error
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendString(dst, k), ':')
		if k == "kind" {
			dst = appendString(dst, e.Kind)
		} else if dst, err = appendValue(dst, e.Fields[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}', '\n'), nil
}

// appendSpanLine writes sp in the order json.Marshal sorts its keys
// into: the "attr."-prefixed attributes, then dur_ms, end_ms, kind,
// name, parent (roots have none), span, start_ms and trace.
func appendSpanLine(dst []byte, sp *Span) ([]byte, error) {
	var names [8]string
	keys := names[:0]
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	var err error
	for _, k := range keys {
		dst = append(appendEscaped(append(dst, `"attr.`...), k), '"', ':')
		if dst, err = appendValue(dst, sp.Attrs[k]); err != nil {
			return dst, err
		}
		dst = append(dst, ',')
	}
	if dst, err = appendFloat(append(dst, `"dur_ms":`...), sp.EndMs-sp.StartMs); err != nil {
		return dst, err
	}
	if dst, err = appendFloat(append(dst, `,"end_ms":`...), sp.EndMs); err != nil {
		return dst, err
	}
	dst = appendString(append(dst, `,"kind":"span","name":`...), sp.Name)
	if sp.Parent != 0 {
		dst = strconv.AppendUint(append(dst, `,"parent":`...), uint64(sp.Parent), 10)
	}
	dst = strconv.AppendUint(append(dst, `,"span":`...), uint64(sp.ID), 10)
	if dst, err = appendFloat(append(dst, `,"start_ms":`...), sp.StartMs); err != nil {
		return dst, err
	}
	dst = strconv.AppendUint(append(dst, `,"trace":`...), uint64(sp.Trace), 10)
	return append(dst, '}', '\n'), nil
}

// appendValue writes one field value as encoding/json would. The kinds
// the repository emits are written directly; anything else — the
// json.Number values and nested maps and slices of decoded streams —
// goes through json.Marshal.
func appendValue(dst []byte, v interface{}) ([]byte, error) {
	switch v := v.(type) {
	case string:
		return appendString(dst, v), nil
	case float64:
		return appendFloat(dst, v)
	case int:
		return strconv.AppendInt(dst, int64(v), 10), nil
	case int64:
		return strconv.AppendInt(dst, v, 10), nil
	case uint64:
		return strconv.AppendUint(dst, v, 10), nil
	case bool:
		return strconv.AppendBool(dst, v), nil
	case nil:
		return append(dst, "null"...), nil
	}
	buf, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, buf...), nil
}

// appendFloat writes f like encoding/json: the shortest representation
// that round-trips, in 'e' notation below 1e-6 and from 1e21 up, with a
// one-digit negative exponent unpadded. NaN and ±Inf return
// json.Marshal's own error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 becomes e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendString writes s as a quoted JSON string.
func appendString(dst []byte, s string) []byte {
	return append(appendEscaped(append(dst, '"'), s), '"')
}

// appendEscaped writes the body of a JSON string with encoding/json's
// escaping, HTML escaping included: quote, backslash and control bytes,
// <, > and &, invalid UTF-8 (as U+FFFD) and U+2028/U+2029.
func appendEscaped(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// StreamReader decodes a JSONL event stream as written by the JSONL
// sink: one JSON object per line with the event kind under "kind" and
// every other member as a field. It is the one event-stream ingestion
// path in the repository — runlog archives, tacreport and the CLI tests
// all read through it instead of hand-rolling json.Decoder loops.
//
// Numbers decode as json.Number so that re-encoding a stream reproduces
// the stored bytes exactly; use Event.Num/Event.Int for arithmetic.
// The first malformed record latches an error (with its 1-based record
// index) and stops the stream; Err reports it after Next returns false.
type StreamReader struct {
	dec *json.Decoder
	err error
	n   int
}

// NewStreamReader wraps r in a streaming event decoder.
func NewStreamReader(r io.Reader) *StreamReader {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	return &StreamReader{dec: dec}
}

// Next decodes the next event. It returns false at end of stream or on
// the first malformed record; check Err to distinguish the two.
func (s *StreamReader) Next() (Event, bool) {
	if s.err != nil {
		return Event{}, false
	}
	var line map[string]interface{}
	if err := s.dec.Decode(&line); err != nil {
		if !errors.Is(err, io.EOF) {
			s.err = fmt.Errorf("event stream: record %d: %w", s.n+1, err)
		}
		return Event{}, false
	}
	s.n++
	kind, ok := line["kind"].(string)
	if !ok {
		s.err = fmt.Errorf("event stream: record %d: missing or non-string \"kind\"", s.n)
		return Event{}, false
	}
	delete(line, "kind")
	return Event{Kind: kind, Fields: line}, true
}

// Err returns the latched first error (nil after a clean end of stream).
func (s *StreamReader) Err() error { return s.err }

// ReadEventStream decodes an entire JSONL event stream, returning every
// event plus the first decode error (the events before it are returned
// either way).
func ReadEventStream(r io.Reader) ([]Event, error) {
	sr := NewStreamReader(r)
	var out []Event
	for {
		e, ok := sr.Next()
		if !ok {
			return out, sr.Err()
		}
		out = append(out, e)
	}
}

// Str returns the named field as a string.
func (e Event) Str(key string) (string, bool) {
	v, ok := e.Fields[key].(string)
	return v, ok
}

// Num returns the named field as a float64, converting json.Number
// (decoded streams) and every native numeric type (live events).
func (e Event) Num(key string) (float64, bool) { return numValue(e.Fields[key]) }

// numValue coerces any field/attribute value this package round-trips —
// native numerics from live events, json.Number from decoded streams —
// to float64. Shared by Event.Num and Span.AttrNum.
func numValue(v interface{}) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	case uint64:
		return float64(v), true
	case float32:
		return float64(v), true
	}
	return 0, false
}

// Int returns the named field as an int64 (truncating a float field
// only when it is integral).
func (e Event) Int(key string) (int64, bool) {
	switch v := e.Fields[key].(type) {
	case int:
		return int64(v), true
	case int64:
		return v, true
	case uint64:
		return int64(v), true
	case json.Number:
		if i, err := v.Int64(); err == nil {
			return i, true
		}
		return 0, false
	case float64:
		if v == math.Trunc(v) {
			return int64(v), true
		}
	}
	return 0, false
}

// Bool returns the named field as a bool.
func (e Event) Bool(key string) (bool, bool) {
	v, ok := e.Fields[key].(bool)
	return v, ok
}

// Iter decodes an event of kind "iter" (as written by EventProgress)
// back into an IterEvent; ok is false for any other kind. A missing
// best_cost_ms field means no feasible incumbent existed yet, mirrored
// as +Inf exactly as the emitter saw it.
func (e Event) Iter() (IterEvent, bool) {
	if e.Kind != "iter" {
		return IterEvent{}, false
	}
	var ev IterEvent
	ev.Algo, _ = e.Str("algo")
	if i, ok := e.Int("iter"); ok {
		ev.Iter = int(i)
	}
	ev.Feasible, _ = e.Bool("feasible")
	if c, ok := e.Num("best_cost_ms"); ok {
		ev.BestCost = c
	} else {
		ev.BestCost = math.Inf(1)
	}
	return ev, true
}
