package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"taccc/internal/par"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(1)
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(1)
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestRegistryConcurrentUnderPar(t *testing.T) {
	r := NewRegistry()
	const n = 1000
	par.For(8, n, func(i int) {
		r.Counter("hits").Inc()
		r.Gauge("depth").Add(1)
		r.Histogram("lat", DefaultLatencyBucketsMs()).Observe(float64(i % 300))
	})
	if got := r.Counter("hits").Value(); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	if got := r.Gauge("depth").Value(); got != n {
		t.Fatalf("gauge = %v, want %d", got, n)
	}
	// Every i%300 is an integer, so the sum is exact in any order.
	h := r.Snapshot().Histograms["lat"]
	if h.Count != n || h.Sum != 139_500 {
		t.Fatalf("histogram count/sum = %d/%v, want %d/139500", h.Count, h.Sum, n)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []int64{2, 1, 1, 1} // <=1: {0.5, 1}; <=10: {5}; <=100: {50}; overflow: {500}
	for i, c := range want {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], c, s)
		}
	}
	if s.Count != 5 || s.Sum != 556.5 {
		t.Fatalf("count/sum = %d/%v", s.Count, s.Sum)
	}
	if q := s.Quantile(0.5); q != 10 {
		t.Fatalf("p50 = %v, want 10", q)
	}
	if q := s.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("p100 = %v, want +Inf (overflow bucket)", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

// TestHistogramBucketEdges pins where Observe files the values a bucket
// search can get wrong: each bound itself lands in its own bucket (bounds
// are inclusive upper edges), the values just above a bound in the next
// one, -Inf in the first, and +Inf and NaN, which are >= no bound, in the
// overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	type edge struct {
		v    float64
		want int
	}
	bounds := DefaultLatencyBucketsMs()
	overflow := len(bounds)
	cases := []edge{
		{math.Inf(-1), 0},
		{-1, 0},
		{0, 0},
		{math.NaN(), overflow},
		{math.Inf(1), overflow},
		{math.MaxFloat64, overflow},
	}
	for i, b := range bounds {
		cases = append(cases, edge{b, i}, edge{math.Nextafter(b, math.Inf(1)), i + 1})
	}
	for _, c := range cases {
		h := NewHistogram(bounds)
		h.Observe(c.v)
		got := -1
		for i, n := range h.snapshot().Counts {
			if n == 1 {
				got = i
			}
		}
		if got != c.want {
			t.Errorf("Observe(%v) filed in bucket %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests.sent").Add(7)
	r.Gauge("edge_0_queue_depth").Set(3)
	r.Histogram("latency_ms", []float64{10, 100}).Observe(42)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot not parseable: %v\n%s", err, buf.String())
	}
	if s.Counters["requests.sent"] != 7 {
		t.Fatalf("counter lost: %+v", s)
	}
	if s.Gauges["edge_0_queue_depth"] != 3 {
		t.Fatalf("gauge lost: %+v", s)
	}
	h := s.Histograms["latency_ms"]
	if h.Count != 1 || h.Sum != 42 || h.Mean != 42 {
		t.Fatalf("histogram lost: %+v", h)
	}
}

func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	const n = 200
	par.For(8, n, func(i int) {
		Emit(s, "iter", map[string]interface{}{"iter": i, "algo": "qlearning"})
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("got %d lines, want %d", len(lines), n)
	}
	seen := make(map[float64]bool)
	for _, line := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		if m["kind"] != "iter" || m["algo"] != "qlearning" {
			t.Fatalf("bad line: %q", line)
		}
		seen[m["iter"].(float64)] = true
	}
	if len(seen) != n {
		t.Fatalf("expected %d distinct iters, got %d", n, len(seen))
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

type failCloser struct{ err error }

func (f failCloser) Close() error { return f.err }

// TestJSONLCloseReportsWriteErrors: a write error latched during Emit is
// what Close returns, and a second Close returns nil.
func TestJSONLCloseReportsWriteErrors(t *testing.T) {
	wantErr := errors.New("disk full")
	s := NewJSONL(failWriter{err: wantErr})
	Emit(s, "span", map[string]interface{}{"trace": 1})
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close() = %v, want %v", err, wantErr)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close() = %v, want nil (idempotent)", err)
	}
}

// TestJSONLCloseReportsCloseErrors: Close flushes the buffered events
// before it closes the file, and returns the file's close error.
func TestJSONLCloseReportsCloseErrors(t *testing.T) {
	wantErr := errors.New("close failed")
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.file = failCloser{err: wantErr}
	Emit(s, "iter", nil)
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close() = %v, want %v", err, wantErr)
	}
	if !strings.Contains(buf.String(), `"kind":"iter"`) {
		t.Fatalf("event not flushed before close: %q", buf.String())
	}
}

func TestJSONLCloseNilSafe(t *testing.T) {
	var s *JSONL
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close() = %v", err)
	}
}

func TestCreateJSONLRoundTrip(t *testing.T) {
	path := t.TempDir() + "/events.jsonl"
	s, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	Emit(s, "span", map[string]interface{}{"trace": 7})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"kind":"span","trace":7}`+"\n" {
		t.Fatalf("file holds %q", data)
	}
}

func TestNilSinksAreNoOps(t *testing.T) {
	Emit(nil, "x", nil) // must not panic
	EmitIter(nil, "a", 0, 1, true)
	if MultiSink() != nil || MultiSink(nil, nil) != nil {
		t.Fatal("empty MultiSink should be nil")
	}
	if MultiProgress() != nil || MultiProgress(nil) != nil {
		t.Fatal("empty MultiProgress should be nil")
	}
	if EventProgress(nil) != nil || MetricsProgress(nil) != nil {
		t.Fatal("adapters over nil should be nil")
	}
}

func TestEventProgressSkipsInfiniteCost(t *testing.T) {
	var events []Event
	var mu sync.Mutex
	sink := SinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	p := EventProgress(sink)
	EmitIter(p, "qlearning", 0, math.Inf(1), false)
	EmitIter(p, "qlearning", 1, 42.5, true)
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if _, ok := events[0].Fields["best_cost_ms"]; ok {
		t.Fatal("infeasible event should omit best_cost_ms")
	}
	if events[1].Fields["best_cost_ms"] != 42.5 {
		t.Fatalf("best_cost_ms lost: %+v", events[1])
	}
	// The JSONL encoding of both events must succeed (no Inf leaks).
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	for _, e := range events {
		j.Emit(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCountEvents(t *testing.T) {
	r := NewRegistry()
	var forwarded int
	s := CountEvents(r, SinkFunc(func(Event) { forwarded++ }))
	s.Emit(Event{Kind: "cell"})
	s.Emit(Event{Kind: "cell"})
	s.Emit(Event{Kind: "spec-done"})
	if got := r.Counter("events.cell").Value(); got != 2 {
		t.Fatalf("events.cell = %d", got)
	}
	if got := r.Counter("events.spec-done").Value(); got != 1 {
		t.Fatalf("events.spec-done = %d", got)
	}
	if forwarded != 3 {
		t.Fatalf("forwarded = %d", forwarded)
	}
}

func TestProgressWriterPrintsImprovementsOnly(t *testing.T) {
	var buf bytes.Buffer
	p := ProgressWriter(&buf)
	EmitIter(p, "tabu", 0, 100, true)
	EmitIter(p, "tabu", 1, 100, true) // no improvement: silent
	EmitIter(p, "tabu", 2, 90, true)
	out := buf.String()
	if strings.Count(out, "\n") != 2 {
		t.Fatalf("want 2 lines, got:\n%s", out)
	}
	if !strings.Contains(out, "iter 0") || !strings.Contains(out, "iter 2") {
		t.Fatalf("unexpected lines:\n%s", out)
	}
}

func TestProfileHelpers(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartCPUProfile(dir + "/cpu.prof")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := WriteHeapProfile(dir + "/heap.prof"); err != nil {
		t.Fatal(err)
	}
}
