package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestWallClockMonotonic(t *testing.T) {
	c := WallClock()
	prev := c.NowMs()
	for i := 0; i < 100; i++ {
		now := c.NowMs()
		if now < prev {
			t.Fatalf("wall clock went backwards: %v -> %v", prev, now)
		}
		prev = now
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock(10)
	if got := c.NowMs(); got != 10 {
		t.Fatalf("NowMs = %v, want 10", got)
	}
	c.Advance(5.5)
	if got := c.NowMs(); got != 15.5 {
		t.Fatalf("NowMs = %v, want 15.5", got)
	}
	c.Set(100)
	if got := c.NowMs(); got != 100 {
		t.Fatalf("NowMs = %v, want 100", got)
	}
}

func TestTracerPhasesNestAndMeasure(t *testing.T) {
	clock := NewManualClock(0)
	var col SpanCollector
	tr := NewTracer(&col, clock)

	root := tr.Root("run")
	clock.Advance(1)
	build := root.Child("build")
	clock.Advance(7)
	build.SetAttr("edges", 6)
	build.End()
	solve := root.Child("solve")
	clock.Advance(2)
	solve.End()
	clock.Advance(0.5)
	root.End()

	spans := col.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Children end before the root, so the root span arrives last.
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	rootSp := byName["run"]
	if rootSp.Parent != 0 || rootSp.StartMs != 0 || rootSp.EndMs != 10.5 {
		t.Fatalf("root span wrong: %+v", rootSp)
	}
	b := byName["build"]
	if b.Parent != rootSp.ID || b.StartMs != 1 || b.EndMs != 8 {
		t.Fatalf("build span wrong: %+v", b)
	}
	if v, ok := b.AttrNum("edges"); !ok || v != 6 {
		t.Fatalf("build attr edges = %v %v, want 6", v, ok)
	}
	s := byName["solve"]
	if s.Parent != rootSp.ID || s.StartMs != 8 || s.EndMs != 10 {
		t.Fatalf("solve span wrong: %+v", s)
	}
	if rootSp.Trace != PipelineTrace || b.Trace != PipelineTrace {
		t.Fatalf("pipeline spans must share trace %d", PipelineTrace)
	}
}

func TestPhaseEndIdempotentAndLateAttrsDropped(t *testing.T) {
	clock := NewManualClock(0)
	var col SpanCollector
	tr := NewTracer(&col, clock)
	p := tr.Root("x")
	p.End()
	p.SetAttr("late", true)
	p.End()
	spans := col.Spans()
	if len(spans) != 1 {
		t.Fatalf("End not idempotent: %d spans", len(spans))
	}
	if _, ok := spans[0].Attrs["late"]; ok {
		t.Fatal("attr set after End leaked into span")
	}
}

func TestNilTracerAndPhaseAreInert(t *testing.T) {
	var tr *Tracer
	if tr.NowMs() != 0 {
		t.Fatal("nil tracer NowMs != 0")
	}
	p := tr.Root("x")
	if p != nil {
		t.Fatal("nil tracer handed out a non-nil phase")
	}
	// All of these must be safe no-ops.
	c := p.Child("y")
	if c != nil {
		t.Fatal("nil phase handed out a non-nil child")
	}
	p.SetAttr("k", 1)
	p.Span("shard", 0, 1, nil)
	p.End()
	if p.Tracer() != nil || p.NowMs() != 0 {
		t.Fatal("nil phase must report a nil tracer and zero clock")
	}
	if NewTracer(nil, nil) != nil {
		t.Fatal("NewTracer(nil sink) must return nil (tracing off)")
	}
}

func TestNilTracingAddsZeroAllocations(t *testing.T) {
	var root *Phase
	allocs := testing.AllocsPerRun(100, func() {
		ph := root.Child("phase")
		ph.SetAttr("k", "v")
		ph.Span("shard", 0, 1, nil)
		ph.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-phase tracing allocated %.0f times per op, want 0", allocs)
	}
}

func TestConcurrentChildren(t *testing.T) {
	var col SpanCollector
	tr := NewTracer(&col, WallClock())
	root := tr.Root("run")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ph := root.Child("work")
				ph.SetAttr("worker", w)
				ph.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	spans := col.Spans()
	if len(spans) != 8*50+1 {
		t.Fatalf("got %d spans, want %d", len(spans), 8*50+1)
	}
	seen := map[SpanID]bool{}
	for _, sp := range spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span ID %d", sp.ID)
		}
		seen[sp.ID] = true
	}
}

func TestSpanEventRoundTripThroughJSONL(t *testing.T) {
	in := Span{
		Trace: PipelineTrace, ID: 7, Parent: 3, Name: "delay-matrix",
		StartMs: 1.25, EndMs: 9.75,
		Attrs: map[string]interface{}{"worker": 2, "items": 120, "busy_ms": 8.5, "mode": "dijkstra"},
	}
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	EmitSpan(sink, in)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEventStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events", len(events))
	}
	out, ok := SpanFromEvent(events[0])
	if !ok {
		t.Fatal("SpanFromEvent failed on a span event")
	}
	if out.Trace != in.Trace || out.ID != in.ID || out.Parent != in.Parent ||
		out.Name != in.Name || out.StartMs != in.StartMs || out.EndMs != in.EndMs {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if v, ok := out.AttrNum("worker"); !ok || v != 2 {
		t.Fatalf("attr worker = %v %v", v, ok)
	}
	if v, ok := out.AttrNum("busy_ms"); !ok || v != 8.5 {
		t.Fatalf("attr busy_ms = %v %v", v, ok)
	}
	if v, ok := out.AttrStr("mode"); !ok || v != "dijkstra" {
		t.Fatalf("attr mode = %v %v", v, ok)
	}
	if _, ok := SpanFromEvent(Event{Kind: "iter"}); ok {
		t.Fatal("SpanFromEvent accepted a non-span event")
	}
	if got := SpansFromEvents(events); len(got) != 1 || got[0].Name != "delay-matrix" {
		t.Fatalf("SpansFromEvents = %+v", got)
	}
}

func TestRetroactiveChildSpans(t *testing.T) {
	clock := NewManualClock(0)
	var col SpanCollector
	tr := NewTracer(&col, clock)
	root := tr.Root("delay-matrix")
	for w := 0; w < 3; w++ {
		root.Span("shard", float64(w), float64(w)+2, map[string]interface{}{"worker": w, "items": 10 * (w + 1)})
	}
	clock.Advance(5)
	root.End()
	spans := col.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	for i := 0; i < 3; i++ {
		sp := spans[i]
		if sp.Name != "shard" || sp.Parent == 0 {
			t.Fatalf("shard span %d wrong: %+v", i, sp)
		}
		if sp.StartMs != float64(i) || sp.EndMs != float64(i)+2 {
			t.Fatalf("shard span %d timing wrong: %+v", i, sp)
		}
	}
	ids := map[SpanID]bool{}
	for _, sp := range spans {
		if ids[sp.ID] {
			t.Fatal(fmt.Sprintf("duplicate span id %d", sp.ID))
		}
		ids[sp.ID] = true
	}
}
