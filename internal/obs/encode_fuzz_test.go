package obs

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// referenceSpanFields is the field map a span event carried before spans
// became a typed payload: the map Span.Event used to build.
func referenceSpanFields(sp Span) map[string]interface{} {
	fields := make(map[string]interface{}, 6+len(sp.Attrs))
	fields["trace"] = uint64(sp.Trace)
	fields["span"] = uint64(sp.ID)
	fields["name"] = sp.Name
	fields["start_ms"] = sp.StartMs
	fields["end_ms"] = sp.EndMs
	fields["dur_ms"] = sp.EndMs - sp.StartMs
	if sp.Parent != 0 {
		fields["parent"] = uint64(sp.Parent)
	}
	for k, v := range sp.Attrs {
		fields["attr."+k] = v
	}
	return fields
}

// referenceLine is the line encoding before the append-based encoder:
// the fields and the kind copied into one map, marshaled by
// encoding/json, which sorts the keys.
func referenceLine(kind string, fields map[string]interface{}) ([]byte, error) {
	line := make(map[string]interface{}, len(fields)+1)
	for k, v := range fields {
		line[k] = v
	}
	line["kind"] = kind
	buf, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// lineInput reads FuzzEncodeLine's input. Every read past the end yields
// zeros, so any input decodes.
type lineInput []byte

func (in *lineInput) u8() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// bits reads 8 bytes, little-endian: a float64's raw bits or an integer.
func (in *lineInput) bits() uint64 {
	var b [8]byte
	*in = (*in)[copy(b[:], *in):]
	return binary.LittleEndian.Uint64(b[:])
}

// str reads a length byte and that many raw bytes.
func (in *lineInput) str() string {
	n := min(int(in.u8()), len(*in))
	s := string((*in)[:n])
	*in = (*in)[n:]
	return s
}

// Value kinds, in the order lineInput.value decodes them. Spans use the
// first six; generic events also carry json.Number and nil.
const (
	kindInt = iota
	kindInt64
	kindUint64
	kindFloat64
	kindString
	kindBool
	kindNumber
	kindNil
	spanKinds  = kindBool + 1
	eventKinds = kindNil + 1
)

func (in *lineInput) value(kinds byte) interface{} {
	switch in.u8() % kinds {
	case kindInt:
		return int(int64(in.bits()))
	case kindInt64:
		return int64(in.bits())
	case kindUint64:
		return in.bits()
	case kindFloat64:
		return math.Float64frombits(in.bits())
	case kindString:
		return in.str()
	case kindBool:
		return in.u8()&1 == 1
	case kindNumber:
		return json.Number(in.str())
	}
	return nil
}

func (in *lineInput) fields(kinds byte) map[string]interface{} {
	n := int(in.u8() % 16)
	if n == 0 {
		return nil
	}
	fields := make(map[string]interface{}, n)
	for i := 0; i < n; i++ {
		k := in.str()
		fields[k] = in.value(kinds)
	}
	return fields
}

// lineSeed writes inputs in the format lineInput reads.
type lineSeed []byte

func (b lineSeed) str(s string) lineSeed { return append(append(b, byte(len(s))), s...) }
func (b lineSeed) bits(v uint64) lineSeed {
	return binary.LittleEndian.AppendUint64(b, v)
}
func (b lineSeed) float(f float64) lineSeed { return b.bits(math.Float64bits(f)) }

func (b lineSeed) fields(fields map[string]interface{}) lineSeed {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, byte(len(keys)))
	for _, k := range keys {
		b = b.str(k)
		switch v := fields[k].(type) {
		case int:
			b = append(b, kindInt).bits(uint64(v))
		case int64:
			b = append(b, kindInt64).bits(uint64(v))
		case uint64:
			b = append(b, kindUint64).bits(v)
		case float64:
			b = append(b, kindFloat64).float(v)
		case string:
			b = append(b, kindString).str(v)
		case bool:
			flag := byte(0)
			if v {
				flag = 1
			}
			b = append(b, kindBool, flag)
		case json.Number:
			b = append(b, kindNumber).str(string(v))
		case nil:
			b = append(b, kindNil)
		}
	}
	return b
}

func spanSeed(sp Span) []byte {
	b := lineSeed{0}.str(sp.Name).float(sp.StartMs).float(sp.EndMs)
	return b.bits(uint64(sp.Trace)).bits(uint64(sp.ID)).bits(uint64(sp.Parent)).fields(sp.Attrs)
}

func eventSeed(e Event) []byte { return lineSeed{1}.str(e.Kind).fields(e.Fields) }

// FuzzEncodeLine checks the append-based line encoder against
// referenceLine. The input decodes to a Span — its name from raw bytes,
// its times from raw float64 bits, a zero or non-zero parent, and
// attributes of every kind the repository emits — or to a generic Event
// that may also carry json.Number and nil. Both lines must match the
// reference byte for byte, and a non-finite float or invalid number must
// fail with the reference's error text.
func FuzzEncodeLine(f *testing.F) {
	request := Span{Trace: 4821, ID: 1, Name: "request", StartMs: 301523.0087, EndMs: 301531.98125,
		Attrs: map[string]interface{}{"device": 217, "edge": 13, "outcome": "missed"}}
	queue := Span{Trace: 4821, ID: 3, Parent: 1, Name: "queue", StartMs: 301527.25, EndMs: 301527.25}
	phase := Span{Trace: PipelineTrace, ID: 4, Parent: 1, Name: "delay-matrix", StartMs: 12.5, EndMs: 48.0001,
		Attrs: map[string]interface{}{
			"workers": 2, "heap_begin_bytes": uint64(1 << 22), "heap_end_bytes": uint64(3 << 20),
			"heap_delta_bytes": int64(-1 << 20), "allocs": uint64(918), "gc_cycles": uint64(1), "gc_pause_ms": 0.041,
		}}
	odd := Span{Trace: 1 << 63, ID: 9, Parent: 2, Name: "a\"b\\c<d>e&f\x00\x1f\b\f\n\r\t\x7f\xff\xe2\x80\xa8\u2029\u00e9",
		StartMs: 5e-324, EndMs: 1e21,
		Attrs: map[string]interface{}{"neg0": math.Copysign(0, -1), "tiny": 1e-7, "edge\u2028": 1e-6, "ok": true}}
	f.Add(spanSeed(request))
	f.Add(spanSeed(queue))
	f.Add(spanSeed(phase))
	f.Add(spanSeed(odd))
	f.Add(spanSeed(Span{Trace: 7, ID: 2, Parent: 1, Name: "uplink", StartMs: 3, EndMs: math.Inf(1)}))
	f.Add(spanSeed(Span{Trace: 7, ID: 1, Name: "request", StartMs: math.NaN(), EndMs: 1,
		Attrs: map[string]interface{}{"x": math.Inf(-1)}}))
	f.Add(eventSeed(Event{Kind: "slo-window", Fields: map[string]interface{}{
		"window": int64(41), "start_ms": 41000.0, "end_ms": 42000.0, "series": "e2e", "count": uint64(512),
		"mean_ms": 7.625, "p50_ms": 6.5, "p95_ms": 14.25, "p99_ms": 19.75,
		"missed": int64(3), "dropped": int64(0), "miss_rate": 0.005859375,
	}}))
	f.Add(eventSeed(Event{Kind: "iter", Fields: map[string]interface{}{
		"algo": "tabu", "iter": 1999, "feasible": true, "best_cost_ms": 1523.8831249999998,
	}}))
	f.Add(eventSeed(Event{Kind: "<cell>", Fields: map[string]interface{}{
		"kind": "shadowed", "n": json.Number("-12.5e+07"), "z": json.Number(""), "none": nil,
	}}))
	f.Add(eventSeed(Event{Kind: "cell", Fields: map[string]interface{}{"bad": json.Number("01")}}))
	f.Add(eventSeed(Event{Kind: "cell", Fields: map[string]interface{}{"nan": math.NaN()}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := lineInput(data)
		var e Event
		var wantKind string
		var wantFields map[string]interface{}
		if in.u8()%2 == 0 {
			var sp Span
			sp.Name = in.str()
			sp.StartMs = math.Float64frombits(in.bits())
			sp.EndMs = math.Float64frombits(in.bits())
			sp.Trace = TraceID(in.bits())
			sp.ID = SpanID(in.bits())
			sp.Parent = SpanID(in.bits())
			sp.Attrs = in.fields(spanKinds)
			e, wantKind, wantFields = sp.Event(), "span", referenceSpanFields(sp)
		} else {
			e = Event{Kind: in.str(), Fields: in.fields(eventKinds)}
			wantKind, wantFields = e.Kind, e.Fields
		}
		want, wantErr := referenceLine(wantKind, wantFields)
		got, err := appendLine(nil, e)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("error %v, want %v (line %q)", err, wantErr, got)
			}
		case err != nil:
			t.Fatalf("unexpected error %v, want %q", err, want)
		case string(got) != string(want):
			t.Fatalf("line\n%q\nwant\n%q", got, want)
		}
	})
}
