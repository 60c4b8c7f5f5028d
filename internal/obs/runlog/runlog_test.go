package runlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/obs/sysmon"
)

// Write re-serializes the archive into dir using the same canonical
// encodings as the Writer, so Load(dir₁) → Write(dir₂) reproduces every
// file byte-for-byte: the oracle of the round-trip tests.
func (a *Archive) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	for i, st := range streams {
		events := *st.field(a)
		if i > 0 && events == nil {
			continue
		}
		if err := writeEventFile(filepath.Join(dir, st.name), events); err != nil {
			return err
		}
	}
	if err := WriteJSONFile(filepath.Join(dir, MetricsFile), a.Metrics); err != nil {
		return err
	}
	summary := a.Summary
	if summary == nil {
		summary = Summary{}
	}
	if err := WriteJSONFile(filepath.Join(dir, SummaryFile), summary); err != nil {
		return err
	}
	return WriteJSONFile(filepath.Join(dir, ManifestFile), a.Manifest)
}

// writeEventFile writes a decoded event stream back out through a JSONL
// sink, whose line encoder reproduces what the sink first wrote.
func writeEventFile(path string, events []obs.Event) error {
	s, err := obs.CreateJSONL(path)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		return fmt.Errorf("runlog: %s: %w", filepath.Base(path), err)
	}
	return nil
}

// writeSample produces a representative archive: iter events, a span
// event, counters, gauges, a histogram and a summary.
func writeSample(t testing.TB, dir string) {
	t.Helper()
	w, err := Create(dir, Manifest{
		Tool: "tactest", Version: "v1.2.3", Seed: 42,
		Config: map[string]string{"algo": "tabu", "iot": "20"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := w.Sink()
	obs.Emit(sink, "iter", map[string]interface{}{"algo": "tabu", "iter": 0, "feasible": false})
	obs.Emit(sink, "iter", map[string]interface{}{"algo": "tabu", "iter": 1, "feasible": true, "best_cost_ms": 18.75})
	obs.EmitSpan(sink, obs.Span{Trace: 7, ID: 1, Name: "request", StartMs: 0, EndMs: 3.5})

	reg := obs.NewRegistry()
	reg.Counter("cluster.requests_ok").Add(10)
	reg.Gauge("cluster.edge_0.queue_depth").Set(2)
	reg.Histogram("cluster.latency_ms", obs.DefaultLatencyBucketsMs()).Observe(3.1)
	if err := w.Close(reg.Snapshot(), Summary{"latency_p50_ms": 3.1, "miss_rate": 0}); err != nil {
		t.Fatal(err)
	}
}

func readArchiveFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range []string{ManifestFile, EventsFile, MetricsFile, SummaryFile} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// TestRoundTripByteIdentical is the archive acceptance criterion:
// write → load → re-write reproduces every file byte for byte.
func TestRoundTripByteIdentical(t *testing.T) {
	src := filepath.Join(t.TempDir(), "run")
	writeSample(t, src)
	a, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "rewrite")
	if err := a.Write(dst); err != nil {
		t.Fatal(err)
	}
	want, got := readArchiveFiles(t, src), readArchiveFiles(t, dst)
	for name := range want {
		if !bytes.Equal(want[name], got[name]) {
			t.Errorf("%s differs after round trip:\noriginal: %s\nrewrite:  %s", name, want[name], got[name])
		}
	}
}

func TestLoadedArchiveContents(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	writeSample(t, dir)
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := a.Manifest
	if m.Tool != "tactest" || m.Version != "v1.2.3" || m.Seed != 42 || m.Format != FormatVersion {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Config["algo"] != "tabu" {
		t.Fatalf("config = %v", m.Config)
	}
	if m.StartUnixMs == 0 {
		t.Fatal("manifest has no start timestamp")
	}
	if len(a.Events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(a.Events))
	}
	iters := a.IterEvents()
	if len(iters) != 2 || iters[1].BestCost != 18.75 || !iters[1].Feasible {
		t.Fatalf("iter events = %+v", iters)
	}
	if a.Metrics.Counters["cluster.requests_ok"] != 10 {
		t.Fatalf("metrics counters = %v", a.Metrics.Counters)
	}
	if h, ok := a.Metrics.Histograms["cluster.latency_ms"]; !ok || h.Count != 1 {
		t.Fatalf("latency histogram = %+v (ok=%v)", h, ok)
	}
	if a.Summary["latency_p50_ms"] != 3.1 {
		t.Fatalf("summary = %v", a.Summary)
	}
	if !IsArchiveDir(dir) {
		t.Fatal("IsArchiveDir = false for a real archive")
	}
	if IsArchiveDir(t.TempDir()) {
		t.Fatal("IsArchiveDir = true for an empty dir")
	}
}

// TestLoadCorruptionErrors covers every corruption class: the error
// must be descriptive (naming the archive and the offending file), not
// a panic and not a silent partial load.
func TestLoadCorruptionErrors(t *testing.T) {
	newSample := func() string {
		dir := filepath.Join(t.TempDir(), "run")
		writeSample(t, dir)
		return dir
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    []string
	}{
		{
			name:    "missing archive",
			corrupt: func(t *testing.T, dir string) { os.RemoveAll(dir) },
			want:    []string{"manifest.json"},
		},
		{
			name: "truncated manifest",
			corrupt: func(t *testing.T, dir string) {
				truncateFile(t, filepath.Join(dir, ManifestFile), 10)
			},
			want: []string{ManifestFile, "truncated"},
		},
		{
			name: "corrupted events stream",
			corrupt: func(t *testing.T, dir string) {
				appendFile(t, filepath.Join(dir, EventsFile), "{\"kind\": \"iter\", ga")
			},
			want: []string{EventsFile, "record 4"},
		},
		{
			name: "event record without kind",
			corrupt: func(t *testing.T, dir string) {
				appendFile(t, filepath.Join(dir, EventsFile), "{\"iter\":9}\n")
			},
			want: []string{EventsFile, "kind"},
		},
		{
			name: "future format version",
			corrupt: func(t *testing.T, dir string) {
				data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
				if err != nil {
					t.Fatal(err)
				}
				data = bytes.Replace(data, []byte(`"format": 1`), []byte(`"format": 99`), 1)
				if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: []string{"unsupported archive format 99"},
		},
		{
			name: "missing metrics",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, MetricsFile)); err != nil {
					t.Fatal(err)
				}
			},
			want: []string{MetricsFile},
		},
		{
			name: "truncated summary",
			corrupt: func(t *testing.T, dir string) {
				truncateFile(t, filepath.Join(dir, SummaryFile), 5)
			},
			want: []string{SummaryFile},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := newSample()
			tc.corrupt(t, dir)
			_, err := Load(dir)
			if err == nil {
				t.Fatal("Load succeeded on a corrupted archive")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if !strings.Contains(err.Error(), dir) && tc.name != "missing archive" {
				t.Errorf("error %q does not name the archive directory", err)
			}
		})
	}
}

// TestEmptyEventStream: a run that emitted nothing still archives and
// loads cleanly (events.jsonl exists but is empty).
func TestEmptyEventStream(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Tool: "tactest", Version: "devel", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(obs.Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != 0 || len(a.Summary) != 0 {
		t.Fatalf("empty run loaded as %d events, summary %v", len(a.Events), a.Summary)
	}
}

// TestCloseIdempotentAndNilSafe: a nil writer no-ops everywhere so CLI
// code can defer Close unconditionally.
func TestCloseIdempotentAndNilSafe(t *testing.T) {
	var w *Writer
	if w.Sink() != nil {
		t.Fatal("nil writer returned a sink")
	}
	if err := w.Close(obs.Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	writeSample(t, dir)
}

// writeTracedSample is writeSample plus a pipeline trace stream.
func writeTracedSample(t *testing.T, dir string) {
	t.Helper()
	w, err := Create(dir, Manifest{Tool: "tactest", Version: "v1.2.3", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	obs.Emit(w.Sink(), "iter", map[string]interface{}{"algo": "tabu", "iter": 0, "feasible": true})
	trace, err := w.Stream(TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	clock := obs.NewManualClock(0)
	tr := obs.NewTracer(trace, clock)
	root := tr.Root("pipeline")
	clock.Advance(2)
	ph := root.Child("delay-matrix")
	clock.Advance(5)
	ph.Span("shard", 2, 6, map[string]interface{}{"worker": 0, "items": 9, "busy_ms": 3.5})
	ph.End()
	clock.Advance(1)
	root.End()
	if err := w.Close(obs.Snapshot{}, Summary{"total_ms": 8}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceRoundTrip: trace.jsonl loads into Archive.Trace, decodes to
// spans, and Write reproduces it byte for byte alongside the rest.
func TestTraceRoundTrip(t *testing.T) {
	src := filepath.Join(t.TempDir(), "run")
	writeTracedSample(t, src)
	a, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace) != 3 {
		t.Fatalf("loaded %d trace events, want 3", len(a.Trace))
	}
	spans := a.Spans()
	if len(spans) != 3 {
		t.Fatalf("decoded %d spans, want 3", len(spans))
	}
	byName := map[string]obs.Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	root, ok := byName["pipeline"]
	if !ok || root.EndMs != 8 {
		t.Fatalf("pipeline root = %+v (ok=%v)", root, ok)
	}
	if sh := byName["shard"]; sh.Parent == 0 {
		t.Fatalf("shard span unparented: %+v", sh)
	}
	if w, ok := byName["shard"].AttrNum("worker"); !ok || w != 0 {
		t.Fatalf("shard worker attr = %v (ok=%v)", w, ok)
	}

	dst := filepath.Join(t.TempDir(), "rewrite")
	if err := a.Write(dst); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ManifestFile, EventsFile, MetricsFile, SummaryFile, TraceFile} {
		want, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dst, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs after round trip:\noriginal: %s\nrewrite:  %s", name, want, got)
		}
	}
}

// TestTraceAbsentIsFine: archives without trace.jsonl (tracing off, and
// every pre-trace archive) load with a nil Trace, and Write does not
// invent the file.
func TestTraceAbsentIsFine(t *testing.T) {
	src := filepath.Join(t.TempDir(), "run")
	writeSample(t, src)
	a, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != nil || a.Spans() != nil {
		t.Fatalf("untraced archive loaded trace %v", a.Trace)
	}
	dst := filepath.Join(t.TempDir(), "rewrite")
	if err := a.Write(dst); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dst, TraceFile)); !os.IsNotExist(err) {
		t.Fatalf("rewrite of an untraced archive grew a %s (err=%v)", TraceFile, err)
	}
}

// TestStartTraceNilAndCorrupt: a nil writer's trace stream no-ops; a
// corrupted trace stream fails Load with a descriptive error.
func TestStartTraceNilAndCorrupt(t *testing.T) {
	var w *Writer
	sink, err := w.Stream(TraceFile)
	if sink != nil || err != nil {
		t.Fatalf("nil writer Stream(%s) = %v, %v", TraceFile, sink, err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	writeTracedSample(t, dir)
	appendFile(t, filepath.Join(dir, TraceFile), "{\"kind\": \"span\", ga")
	_, err = Load(dir)
	if err == nil || !strings.Contains(err.Error(), TraceFile) {
		t.Fatalf("corrupt trace load error = %v", err)
	}
}

// writeResourcedSample is writeSample plus a sysmon resource stream.
func writeResourcedSample(t *testing.T, dir string) {
	t.Helper()
	w, err := Create(dir, Manifest{Tool: "tactest", Version: "v1.2.3", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	obs.Emit(w.Sink(), "iter", map[string]interface{}{"algo": "tabu", "iter": 0, "feasible": true})
	res, err := w.Stream(ResourcesFile)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res.Emit(sysmon.Sample{
			TMs: float64(i * 10), UnixMs: int64(1700000000000 + i*10),
			HeapInuseBytes: uint64(1000 + i), HeapAllocBytes: uint64(900 + i),
			TotalAllocBytes: uint64(5000 * (i + 1)), Mallocs: uint64(10 * (i + 1)),
			AllocBytesPerS: float64(i) * 500, GCCycles: uint64(i), GCPauseMs: float64(i) * 0.25,
			Goroutines: 4 + i, RSSBytes: 1 << 20,
		}.Event())
	}
	if err := w.Close(obs.Snapshot{}, Summary{"total_ms": 8}); err != nil {
		t.Fatal(err)
	}
}

// TestResourcesRoundTrip: resources.jsonl loads into Archive.Resources,
// decodes back to samples, and Write reproduces it byte for byte.
func TestResourcesRoundTrip(t *testing.T) {
	src := filepath.Join(t.TempDir(), "run")
	writeResourcedSample(t, src)
	a, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Resources) != 3 {
		t.Fatalf("loaded %d resource events, want 3", len(a.Resources))
	}
	samples := sysmon.SamplesFromEvents(a.Resources)
	if len(samples) != 3 {
		t.Fatalf("decoded %d samples, want 3", len(samples))
	}
	if samples[2].TMs != 20 || samples[2].Goroutines != 6 || samples[2].GCPauseMs != 0.5 {
		t.Fatalf("last sample = %+v", samples[2])
	}

	dst := filepath.Join(t.TempDir(), "rewrite")
	if err := a.Write(dst); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ManifestFile, EventsFile, MetricsFile, SummaryFile, ResourcesFile} {
		want, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dst, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs after round trip:\noriginal: %s\nrewrite:  %s", name, want, got)
		}
	}
}

// TestResourcesAbsentIsFine: archives without resources.jsonl (sysmon
// off, and every pre-sysmon archive) load with nil Resources, and Write
// does not invent the file.
func TestResourcesAbsentIsFine(t *testing.T) {
	src := filepath.Join(t.TempDir(), "run")
	writeSample(t, src)
	a, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Resources != nil {
		t.Fatalf("unsampled archive loaded resources %v", a.Resources)
	}
	dst := filepath.Join(t.TempDir(), "rewrite")
	if err := a.Write(dst); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dst, ResourcesFile)); !os.IsNotExist(err) {
		t.Fatalf("rewrite of an unsampled archive grew a %s (err=%v)", ResourcesFile, err)
	}
}

// TestStartResourcesNilAndCorrupt: a nil writer's resource stream
// no-ops; a corrupted resource stream fails Load with a descriptive
// error.
func TestStartResourcesNilAndCorrupt(t *testing.T) {
	var w *Writer
	sink, err := w.Stream(ResourcesFile)
	if sink != nil || err != nil {
		t.Fatalf("nil writer Stream(%s) = %v, %v", ResourcesFile, sink, err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	writeResourcedSample(t, dir)
	appendFile(t, filepath.Join(dir, ResourcesFile), "{\"kind\": \"res\", ga")
	_, err = Load(dir)
	if err == nil || !strings.Contains(err.Error(), ResourcesFile) {
		t.Fatalf("corrupt resources load error = %v", err)
	}
}

// TestStreamRejectsUnknownName: Stream opens only the optional streams —
// not events.jsonl, which Create opened, nor any other name — and opens
// no file for a name it rejects; a second call returns the same sink.
func TestStreamRejectsUnknownName(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Tool: "tactest", Version: "devel", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{EventsFile, MetricsFile, "bogus.jsonl", ""} {
		if sink, err := w.Stream(name); sink != nil || err == nil {
			t.Errorf("Stream(%q) = %v, %v; want an error", name, sink, err)
		}
	}
	a, err := w.Stream(SLOFile)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := w.Stream(SLOFile); b != a || err != nil {
		t.Fatalf("second Stream(%s) = %p, %v; want %p", SLOFile, b, err, a)
	}
	if err := w.Close(obs.Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bogus.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("a rejected name left a file behind (err=%v)", err)
	}
}

func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

func appendFile(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}
