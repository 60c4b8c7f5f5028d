package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func pipelineSpans() []Span {
	return []Span{
		{Trace: PipelineTrace, ID: 1, Name: "run", StartMs: 0, EndMs: 20},
		{Trace: PipelineTrace, ID: 2, Parent: 1, Name: "delay-matrix", StartMs: 1, EndMs: 9},
		{Trace: PipelineTrace, ID: 3, Parent: 2, Name: "shard", StartMs: 1.5, EndMs: 8,
			Attrs: map[string]interface{}{"worker": 0, "items": 30, "busy_ms": 6.0}},
		{Trace: PipelineTrace, ID: 4, Parent: 2, Name: "shard", StartMs: 1.5, EndMs: 8.5,
			Attrs: map[string]interface{}{"worker": 1, "items": 34, "busy_ms": 6.5}},
		{Trace: PipelineTrace, ID: 5, Parent: 1, Name: "solve", StartMs: 9, EndMs: 20},
	}
}

func TestChromeTraceWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, pipelineSpans()); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict decode of our own export failed: %v", err)
	}
	var complete, meta int
	tids := map[int]bool{}
	threadNames := map[int]string{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			tids[ev.Tid] = true
			// ts/dur are microseconds.
			if ev.Name == "run" && (*ev.Dur != 20000 || ev.Ts != 0) {
				t.Fatalf("run event not in microseconds: %+v", ev)
			}
		case "M":
			meta++
			if ev.Name == "thread_name" {
				threadNames[ev.Tid], _ = ev.Args["name"].(string)
			}
		}
	}
	if complete != 5 {
		t.Fatalf("got %d complete events, want 5", complete)
	}
	// Pipeline thread + two worker threads.
	if !tids[chromePipelineTid] || !tids[chromeWorkerTid0] || !tids[chromeWorkerTid0+1] {
		t.Fatalf("tids = %v: workers must render as their own threads", tids)
	}
	if threadNames[chromeWorkerTid0] != "worker 0" || threadNames[chromeWorkerTid0+1] != "worker 1" {
		t.Fatalf("thread names = %v", threadNames)
	}
	if threadNames[chromePipelineTid] != "pipeline" {
		t.Fatalf("pipeline thread name = %q", threadNames[chromePipelineTid])
	}
}

func TestChromeTraceDeterministicBytes(t *testing.T) {
	spans := pipelineSpans()
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, spans); err != nil {
		t.Fatal(err)
	}
	// Reversed emission order must still serialize identically.
	rev := make([]Span, len(spans))
	for i, sp := range spans {
		rev[len(spans)-1-i] = sp
	}
	if err := WriteChromeTrace(&b, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome export depends on span emission order")
	}
}

// minimalChromeTrace is the smallest trace ReadChromeTrace accepts.
const minimalChromeTrace = `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`

// malformedChromeTraces are inputs the strict decoder must reject, by
// the defect each carries.
var malformedChromeTraces = map[string]string{
	"empty events":      `{"traceEvents":[]}`,
	"unknown field":     `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"bogus":1}]}`,
	"unknown top field": `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}],"extra":true}`,
	"bad phase":         `{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":1}]}`,
	"missing dur":       `{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}`,
	"negative dur":      `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`,
	"zero pid":          `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0,"tid":1}]}`,
	"empty name":        `{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
	"bad metadata":      `{"traceEvents":[{"name":"weird_meta","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"x"}}]}`,
	"meta missing name": `{"traceEvents":[{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{}}]}`,
	"not json":          `nope`,
	"trailing garbage":  minimalChromeTrace + "\ngarbage",
	"two traces":        minimalChromeTrace + "\n" + minimalChromeTrace,
	"mis-cased top":     `{"TRACEEVENTS":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
	"mis-cased member":  `{"traceEvents":[{"NAME":"x","Ph":"X","ts":0,"DUR":1,"pid":1,"tid":1}]}`,
	"mis-cased unit":    `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}],"DisplayTimeUnit":"ms"}`,
}

func TestReadChromeTraceRejectsMalformed(t *testing.T) {
	for label, in := range malformedChromeTraces {
		if _, err := ReadChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: strict decoder accepted malformed input", label)
		}
	}
	if _, err := ReadChromeTrace(strings.NewReader(minimalChromeTrace + " \n\t")); err != nil {
		t.Fatalf("minimal valid trace with trailing whitespace rejected: %v", err)
	}
}

func TestChromeTraceCounterEvents(t *testing.T) {
	counters := []CounterSample{
		{Name: "go.heap bytes", TsMs: 2, Values: map[string]float64{"inuse": 1 << 20, "alloc": 900 << 10}},
		{Name: "go.goroutines", TsMs: 2, Values: map[string]float64{"count": 5}},
		{Name: "go.heap bytes", TsMs: 4, Values: map[string]float64{"inuse": 2 << 20, "alloc": 1 << 20}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, pipelineSpans(), counters...); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict decode of counter export failed: %v", err)
	}
	var got []ChromeEvent
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "C" {
			got = append(got, ev)
		}
	}
	if len(got) != 3 {
		t.Fatalf("got %d counter events, want 3", len(got))
	}
	// Same-timestamp events sort by name, so goroutines precedes heap.
	first := got[0]
	if first.Name != "go.goroutines" || first.Ts != 2000 { // ms in, µs out
		t.Fatalf("first counter = %+v, want go.goroutines at ts 2000", first)
	}
	if first.Pid != chromePid || first.Tid != chromePipelineTid {
		t.Fatalf("counter event off the pipeline row: %+v", first)
	}
	heap := got[1]
	if v, ok := heap.Args["inuse"].(float64); heap.Name != "go.heap bytes" || !ok || v != 1<<20 {
		t.Fatalf("counter series lost: %+v", heap)
	}
	// Counters interleave with spans by timestamp, so the heap samples
	// straddle the delay-matrix phase start in the sorted stream.
	if got[2].Ts != 4000 {
		t.Fatalf("counter events out of order: %+v", got)
	}
}

func TestChromeTraceCounterDeterministicBytes(t *testing.T) {
	counters := []CounterSample{
		{Name: "go.goroutines", TsMs: 1, Values: map[string]float64{"count": 4}},
		{Name: "go.heap bytes", TsMs: 1, Values: map[string]float64{"inuse": 10, "alloc": 8}},
	}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, pipelineSpans(), counters...); err != nil {
		t.Fatal(err)
	}
	rev := []CounterSample{counters[1], counters[0]}
	if err := WriteChromeTrace(&b, pipelineSpans(), rev...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome export depends on counter sample order")
	}
}

func TestReadChromeTraceRejectsMalformedCounters(t *testing.T) {
	cases := map[string]string{
		"no series":          `{"traceEvents":[{"name":"c","ph":"C","ts":0,"pid":1,"tid":1}]}`,
		"empty series":       `{"traceEvents":[{"name":"c","ph":"C","ts":0,"pid":1,"tid":1,"args":{}}]}`,
		"non-numeric series": `{"traceEvents":[{"name":"c","ph":"C","ts":0,"pid":1,"tid":1,"args":{"v":"high"}}]}`,
	}
	for label, in := range cases {
		if _, err := ReadChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: strict decoder accepted malformed counter", label)
		}
	}
	ok := `{"traceEvents":[{"name":"c","ph":"C","ts":0,"pid":1,"tid":1,"args":{"v":1.5}}]}`
	if _, err := ReadChromeTrace(strings.NewReader(ok)); err != nil {
		t.Fatalf("minimal valid counter rejected: %v", err)
	}
}

// FuzzReadChromeTrace feeds the strict decoder arbitrary bytes. It must
// never panic, and any trace it accepts must read back from its own
// json.Marshal encoding, encoding to the same bytes again. An accepted
// input must be rejected with a non-letter byte appended, or with the
// case of its first member name's first letter swapped. The seeds are a
// real export with counter tracks, the minimal trace and every malformed
// case above, trailing data included.
func FuzzReadChromeTrace(f *testing.F) {
	counters := []CounterSample{
		{Name: "go.heap bytes", TsMs: 2, Values: map[string]float64{"inuse": 1 << 20, "alloc": 900 << 10}},
		{Name: "go.goroutines", TsMs: 3, Values: map[string]float64{"count": 5}},
	}
	var export bytes.Buffer
	if err := WriteChromeTrace(&export, pipelineSpans(), counters...); err != nil {
		f.Fatal(err)
	}
	f.Add(export.Bytes())
	f.Add([]byte(minimalChromeTrace))
	for _, in := range malformedChromeTraces {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, b := range []byte(`0,}]"{`) {
			if _, err := ReadChromeTrace(bytes.NewReader(append(bytes.Clone(data), b))); err == nil {
				t.Fatalf("accepted with %q appended", b)
			}
		}
		if i := bytes.IndexByte(data, '"'); i >= 0 && i+1 < len(data) {
			if c := data[i+1] | 0x20; c >= 'a' && c <= 'z' {
				swapped := bytes.Clone(data)
				swapped[i+1] ^= 0x20
				if _, err := ReadChromeTrace(bytes.NewReader(swapped)); err == nil {
					t.Fatalf("accepted with the first member name's case swapped:\n%s", swapped)
				}
			}
		}
		first, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("accepted trace does not marshal: %v", err)
		}
		back, err := ReadChromeTrace(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("accepted trace does not read back: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("trace changed on read-back:\n%s\n%s", first, second)
		}
	})
}
