package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
	"taccc/internal/report"
)

func runScenario(t *testing.T, extra ...string) (string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	args := append([]string{
		"-iot", "50", "-edge", "5", "-rho", "0.8", "-algo", "tabu", "-seed", "7",
	}, extra...)
	code := run(args, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	return out.String(), errBuf.String()
}

// TestTraceOutProducesValidChromeTrace is the tentpole acceptance
// criterion: tacsolve -archive -trace-out yields a strict-decodable
// Chrome trace whose spans nest correctly, cover >= 95% of wall time,
// and carry per-worker shard spans for the delay-matrix build.
func TestTraceOutProducesValidChromeTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	arDir := filepath.Join(dir, "run")
	runScenario(t, "-workers", "4", "-trace-out", tracePath, "-archive", arDir)

	// Chrome export survives the strict decoder.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := obs.ReadChromeTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	workerTids := map[int]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" && ev.Name == "shard" {
			workerTids[ev.Tid] = true
		}
	}
	if len(workerTids) != 4 {
		t.Fatalf("shard spans on %d worker threads, want 4", len(workerTids))
	}

	// The archive carries the same spans in trace.jsonl; fold them and
	// check structure + coverage.
	ar, err := runlog.Load(arDir)
	if err != nil {
		t.Fatal(err)
	}
	spans := ar.Spans()
	if len(spans) == 0 {
		t.Fatal("archive has no trace spans")
	}
	byID := map[obs.SpanID]obs.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Parent == 0 && sp.Name != "tacsolve" {
			t.Fatalf("root span named %q", sp.Name)
		}
	}
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
		if sp.Parent == 0 {
			continue
		}
		par, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %q parented to unknown span %d", sp.Name, sp.Parent)
		}
		if sp.StartMs < par.StartMs-1e-9 || sp.EndMs > par.EndMs+1e-9 {
			t.Fatalf("span %q [%.3f, %.3f] escapes parent %q [%.3f, %.3f]",
				sp.Name, sp.StartMs, sp.EndMs, par.Name, par.StartMs, par.EndMs)
		}
	}
	for _, want := range []string{"topology", "delay-matrix", "workload", "instance", "solve", "construction", "improvement", "lower-bound", "evaluate"} {
		if names[want] == 0 {
			t.Fatalf("missing %q span; got %v", want, names)
		}
	}
	if names["shard"] != 4 {
		t.Fatalf("%d shard spans, want 4", names["shard"])
	}
	for _, sp := range spans {
		if sp.Name != "shard" {
			continue
		}
		if byID[sp.Parent].Name != "delay-matrix" {
			t.Fatalf("shard parented under %q", byID[sp.Parent].Name)
		}
		if _, ok := sp.AttrNum("worker"); !ok {
			t.Fatalf("shard span missing worker attr: %+v", sp.Attrs)
		}
		if _, ok := sp.AttrNum("busy_ms"); !ok {
			t.Fatalf("shard span missing busy_ms attr: %+v", sp.Attrs)
		}
	}
	p := report.PipelineFromSpans(spans)
	if p == nil {
		t.Fatal("pipeline fold failed")
	}
	if p.CoveragePct < 95 {
		t.Fatalf("trace covers %.1f%% of wall time, want >= 95%%", p.CoveragePct)
	}
}

// TestTraceCoversBoundHeavyGreedy pins the trace of a greedy run on 2000
// devices, where the solver is cheap and the time goes to the pipeline
// layers and the lower bound. The pipeline fold must hold a lower-bound
// phase, since a bound cheap enough would no longer pull coverage below
// 95% without its own span, and the phases must cover at least 95% of
// the wall time.
func TestTraceCoversBoundHeavyGreedy(t *testing.T) {
	arDir := filepath.Join(t.TempDir(), "run")
	var out, errBuf bytes.Buffer
	args := []string{"-iot", "2000", "-edge", "50", "-rho", "0.7", "-algo", "greedy", "-seed", "1",
		"-trace-out", filepath.Join(t.TempDir(), "trace.json"), "-archive", arDir}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	ar, err := runlog.Load(arDir)
	if err != nil {
		t.Fatal(err)
	}
	p := report.PipelineFromSpans(ar.Spans())
	if p == nil {
		t.Fatal("pipeline fold failed")
	}
	bound := false
	for _, ph := range p.Phases {
		bound = bound || ph.Name == "lower-bound"
	}
	if !bound {
		t.Fatalf("pipeline has no lower-bound phase: %+v", p.Phases)
	}
	if p.CoveragePct < 95 {
		t.Fatalf("trace covers %.1f%% of wall time, want >= 95%%", p.CoveragePct)
	}
}

// TestArchiveEventsByteIdenticalWithTracing pins the determinism
// carve-out at the CLI level: the archive's deterministic byte set
// (events, metrics, summary) is identical with tracing on or off and at
// any worker count; only trace.jsonl (and the manifest's wall-clock
// fields) may differ.
func TestArchiveEventsByteIdenticalWithTracing(t *testing.T) {
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
		traced  bool
	}
	variants := []variant{
		{filepath.Join(base, "w1-off"), 1, false},
		{filepath.Join(base, "w1-on"), 1, true},
		{filepath.Join(base, "w8-on"), 8, true},
	}
	for _, v := range variants {
		args := []string{"-archive", v.dir, "-workers", strconv.Itoa(v.workers)}
		if v.traced {
			args = append(args, "-trace-out", filepath.Join(v.dir+".json"))
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
	if _, err := os.Stat(filepath.Join(ref.dir, runlog.TraceFile)); !os.IsNotExist(err) {
		t.Fatalf("untraced run wrote %s (err=%v)", runlog.TraceFile, err)
	}
	for _, v := range variants[1:] {
		if _, err := os.Stat(filepath.Join(v.dir, runlog.TraceFile)); err != nil {
			t.Fatalf("traced run missing %s: %v", runlog.TraceFile, err)
		}
	}
}

// TestScenarioModeUsageErrors pins the flag contract.
func TestScenarioModeUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-iot", "50"}, // missing -edge
		{"-edge", "5"}, // missing -iot
		{"-iot", "50", "-edge", "5", "-instance", "x"}, // both modes
		{}, // neither mode
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, errBuf.String())
		}
	}
}
