package sysmon

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"taccc/internal/obs"
)

func TestSampleEventRoundTrip(t *testing.T) {
	in := Sample{
		TMs: 12.5, UnixMs: 1700000000123,
		HeapInuseBytes: 1 << 20, HeapAllocBytes: 900 << 10,
		TotalAllocBytes: 5 << 20, Mallocs: 4321,
		AllocBytesPerS: 1024.5, GCCycles: 7, GCPauseMs: 0.25,
		Goroutines: 9, RSSBytes: 30 << 20,
	}
	out, ok := SampleFromEvent(in.Event())
	if !ok {
		t.Fatal("SampleFromEvent rejected its own Event")
	}
	if out != in {
		t.Fatalf("round trip changed the sample:\nin:  %+v\nout: %+v", in, out)
	}
	if _, ok := SampleFromEvent(obs.Event{Kind: "iter"}); ok {
		t.Fatal("SampleFromEvent accepted a non-res event")
	}
	if _, ok := SampleFromEvent(obs.Event{Kind: EventKind}); ok {
		t.Fatal("SampleFromEvent accepted an empty res event")
	}
}

// The JSONL plane decodes numbers as json.Number; the decoder must cope.
func TestSampleFromDecodedStream(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	in := Sample{TMs: 3, UnixMs: 99, HeapInuseBytes: 10, HeapAllocBytes: 8,
		TotalAllocBytes: 100, Mallocs: 5, AllocBytesPerS: 2.5, GCCycles: 1,
		GCPauseMs: 0.125, Goroutines: 4, RSSBytes: 0}
	sink.Emit(in.Event())
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEventStream(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	samples := SamplesFromEvents(events)
	if len(samples) != 1 || samples[0] != in {
		t.Fatalf("decoded samples = %+v, want [%+v]", samples, in)
	}
}

func TestReadSnapshotIsLive(t *testing.T) {
	snap := ReadSnapshot()
	if snap.HeapAllocBytes == 0 || snap.TotalAllocBytes == 0 || snap.Mallocs == 0 {
		t.Fatalf("snapshot has zero heap figures: %+v", snap)
	}
	if snap.Goroutines < 1 {
		t.Fatalf("goroutines = %d, want >= 1", snap.Goroutines)
	}
}

func TestReadRSSOnLinux(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("RSS read is /proc-based")
	}
	if rss := readRSS(); rss == 0 {
		t.Fatal("readRSS() = 0 on linux")
	}
}

func TestSamplePublishesRegistryAndSink(t *testing.T) {
	clock := obs.NewManualClock(1000)
	reg := obs.NewRegistry()
	var col Collector
	s := New(Options{Clock: clock, Registry: reg, Sink: &col})

	first := s.Sample()
	if first.TMs != 1000 {
		t.Fatalf("first sample TMs = %v, want the manual clock's 1000", first.TMs)
	}
	if first.AllocBytesPerS != 0 {
		t.Fatalf("first sample alloc rate = %v, want 0 (no previous sample)", first.AllocBytesPerS)
	}
	clock.Advance(500)
	second := s.Sample()
	if second.AllocBytesPerS <= 0 {
		t.Fatalf("second sample alloc rate = %v, want > 0", second.AllocBytesPerS)
	}

	snap := reg.Snapshot()
	if snap.Counters["sysmon.samples_total"] != 2 {
		t.Fatalf("samples_total = %d, want 2", snap.Counters["sysmon.samples_total"])
	}
	if snap.Gauges["go.heap_alloc_bytes"] <= 0 || snap.Gauges["go.goroutines"] < 1 {
		t.Fatalf("gauges not published: %+v", snap.Gauges)
	}
	// The counters accumulate cumulative-total deltas, so after two
	// samples they equal the second sample's runtime totals.
	if got := uint64(snap.Counters["go.allocs_total"]); got != second.Mallocs {
		t.Fatalf("go.allocs_total = %d, want %d", got, second.Mallocs)
	}
	if got := len(col.Samples()); got != 2 {
		t.Fatalf("collector holds %d samples, want 2", got)
	}
}

func TestStartStopTicker(t *testing.T) {
	reg := obs.NewRegistry()
	var col Collector
	s := New(Options{Registry: reg, Sink: &col})
	s.Start(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for len(col.Samples()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	n := len(col.Samples())
	if n < 3 {
		t.Fatalf("sampler took %d samples in 5s at 1ms interval", n)
	}
	if reg.Snapshot().Gauges["sysmon.interval_ms"] != 1 {
		t.Fatal("interval gauge not published")
	}
	// Stopped means stopped: no further samples arrive.
	time.Sleep(5 * time.Millisecond)
	if got := len(col.Samples()); got != n {
		t.Fatalf("samples kept arriving after Stop: %d -> %d", n, got)
	}
	s.Stop() // idempotent
}

func TestDetachSinkKeepsRegistryOnly(t *testing.T) {
	reg := obs.NewRegistry()
	var col Collector
	s := New(Options{Registry: reg, Sink: &col})
	s.Sample()
	s.DetachSink() // takes one final sample, then detaches
	n := len(col.Samples())
	if n != 2 {
		t.Fatalf("collector holds %d samples after detach, want 2", n)
	}
	s.Sample()
	if got := len(col.Samples()); got != n {
		t.Fatal("detached sink still receives samples")
	}
	if reg.Snapshot().Counters["sysmon.samples_total"] != 3 {
		t.Fatal("registry stopped updating after DetachSink")
	}
}

func TestNilSamplerNoOps(t *testing.T) {
	var s *Sampler
	s.Start(time.Millisecond)
	if got := s.Sample(); got != (Sample{}) {
		t.Fatalf("nil Sample() = %+v", got)
	}
	if got := s.ResourceSnapshot(); got != (obs.ResourceSnapshot{}) {
		t.Fatalf("nil ResourceSnapshot() = %+v", got)
	}
	s.DetachSink()
	s.Stop()
	var c *Collector
	c.Emit(obs.Event{Kind: EventKind})
	if c.Samples() != nil {
		t.Fatal("nil collector returned samples")
	}
}

// The off switch must cost nothing: driving a nil sampler through the
// whole method set allocates zero bytes.
func TestNilSamplerZeroAlloc(t *testing.T) {
	var s *Sampler
	allocs := testing.AllocsPerRun(100, func() {
		s.Sample()
		s.DetachSink()
		s.Stop()
	})
	if allocs != 0 {
		t.Fatalf("nil sampler allocates %.1f per run, want 0", allocs)
	}
}

func TestCounterSamples(t *testing.T) {
	samples := []Sample{
		{TMs: 1, HeapInuseBytes: 100, HeapAllocBytes: 80, Goroutines: 5, GCPauseMs: 0.5, RSSBytes: 0},
		{TMs: 2, HeapInuseBytes: 200, HeapAllocBytes: 160, Goroutines: 6, GCPauseMs: 0.75, RSSBytes: 1 << 20},
	}
	cs := CounterSamples(samples)
	// Three tracks for the RSS-less sample, four once RSS is known.
	if len(cs) != 7 {
		t.Fatalf("CounterSamples returned %d tracks, want 7", len(cs))
	}
	if cs[0].Name != "go.heap bytes" || cs[0].TsMs != 1 || cs[0].Values["inuse"] != 100 {
		t.Fatalf("heap track wrong: %+v", cs[0])
	}
	last := cs[len(cs)-1]
	if last.Name != "proc.rss bytes" || last.Values["rss"] != 1<<20 {
		t.Fatalf("rss track wrong: %+v", last)
	}
	for _, c := range cs {
		if _, err := json.Marshal(c.Values); err != nil {
			t.Fatalf("track %s values not serializable: %v", c.Name, err)
		}
	}
}

func TestWatchPeakSeesTransientHigh(t *testing.T) {
	stop := WatchPeak(time.Millisecond)
	// Hold a large allocation long enough for at least one tick.
	buf := make([]byte, 16<<20)
	time.Sleep(10 * time.Millisecond)
	for i := range buf {
		buf[i] = byte(i)
	}
	peak := stop()
	if peak < 16<<20 {
		t.Fatalf("watcher missed a 16 MB allocation: peak = %d", peak)
	}
	runtime.KeepAlive(buf)
}
