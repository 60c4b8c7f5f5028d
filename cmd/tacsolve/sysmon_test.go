package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
	"taccc/internal/obs/sysmon"
	"taccc/internal/report"
)

// TestSysmonEndToEnd is the resource-plane acceptance criterion: a
// tacsolve run with -sysmon -trace-out -archive yields a Chrome trace
// with heap/goroutine counter tracks, a resources.jsonl that round-trips
// through runlog, and a report whose resource-attribution table covers
// the same phase set as the wall-time table.
func TestSysmonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	arDir := filepath.Join(dir, "run")
	runScenario(t, "-workers", "4", "-sysmon", "-sysmon-interval", "1ms",
		"-trace-out", tracePath, "-archive", arDir)

	// The Chrome export carries "C" counter events and still survives the
	// strict decoder.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := obs.ReadChromeTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	counterTracks := map[string]int{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "C" {
			counterTracks[ev.Name]++
		}
	}
	for _, want := range []string{"go.heap bytes", "go.goroutines", "go.gc_pause_ms"} {
		if counterTracks[want] == 0 {
			t.Errorf("trace export missing counter track %q (have %v)", want, counterTracks)
		}
	}

	// resources.jsonl loads, decodes and round-trips byte-identically.
	ar, err := runlog.Load(arDir)
	if err != nil {
		t.Fatal(err)
	}
	samples := sysmon.SamplesFromEvents(ar.Resources)
	if len(samples) == 0 {
		t.Fatal("archive has no resource samples")
	}
	for _, s := range samples {
		if s.HeapAllocBytes == 0 || s.Goroutines < 1 {
			t.Fatalf("degenerate sample: %+v", s)
		}
	}
	want, err := os.ReadFile(filepath.Join(arDir, runlog.ResourcesFile))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	sink := obs.NewJSONL(&got)
	for _, e := range ar.Resources {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatal("resources.jsonl differs after load/rewrite round trip")
	}

	// The report's resource table exists and covers the same phase set as
	// the wall-time pipeline table.
	src, err := report.LoadSource(arDir)
	if err != nil {
		t.Fatal(err)
	}
	rep := report.Summarize(src)
	if rep.Pipeline == nil || rep.Resources == nil {
		t.Fatalf("report missing pipeline (%v) or resource (%v) table", rep.Pipeline, rep.Resources)
	}
	if len(rep.Resources) != len(rep.Pipeline.Phases) {
		t.Fatalf("resource table has %d phases, wall-time table has %d",
			len(rep.Resources), len(rep.Pipeline.Phases))
	}
	for i := range rep.Resources {
		if rep.Resources[i].Name != rep.Pipeline.Phases[i].Name {
			t.Fatalf("phase %d: resource %q vs wall-time %q",
				i, rep.Resources[i].Name, rep.Pipeline.Phases[i].Name)
		}
	}
	if rep.ResourceUsage == nil || rep.ResourceUsage.Samples != len(samples) {
		t.Fatalf("resource usage = %+v, want %d samples", rep.ResourceUsage, len(samples))
	}
}

// TestArchiveBytesIdenticalWithSysmon pins the determinism carve-out for
// the resource plane: the archive's deterministic byte set (events,
// metrics, summary) is identical with sysmon on or off and at any worker
// count; only resources.jsonl (plus trace.jsonl and the manifest's
// wall-clock fields) may differ.
func TestArchiveBytesIdenticalWithSysmon(t *testing.T) {
	read := func(dir, name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := t.TempDir()
	type variant struct {
		dir     string
		workers int
		sysmon  bool
	}
	variants := []variant{
		{filepath.Join(base, "w1-off"), 1, false},
		{filepath.Join(base, "w1-on"), 1, true},
		{filepath.Join(base, "w8-on"), 8, true},
	}
	for _, v := range variants {
		args := []string{"-archive", v.dir, "-workers", strconv.Itoa(v.workers)}
		if v.sysmon {
			args = append(args, "-sysmon", "-sysmon-interval", "5ms")
		}
		runScenario(t, args...)
	}
	ref := variants[0]
	for _, v := range variants[1:] {
		for _, name := range []string{runlog.EventsFile, runlog.MetricsFile, runlog.SummaryFile} {
			if !bytes.Equal(read(ref.dir, name), read(v.dir, name)) {
				t.Errorf("%s differs between %s and %s", name, ref.dir, v.dir)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(ref.dir, runlog.ResourcesFile)); !os.IsNotExist(err) {
		t.Fatalf("unsampled run wrote %s (err=%v)", runlog.ResourcesFile, err)
	}
	for _, v := range variants[1:] {
		if _, err := os.Stat(filepath.Join(v.dir, runlog.ResourcesFile)); err != nil {
			t.Fatalf("sampled run missing %s: %v", runlog.ResourcesFile, err)
		}
	}
}
