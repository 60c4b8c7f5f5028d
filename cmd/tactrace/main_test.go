package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	taccc "taccc"
	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
)

// TestAnalyzeErrors: a missing -in, an unknown flag, or a path that is a
// file rather than a run-archive directory (such as an old CSV trace) are
// usage errors (exit 2); a path that does not exist is a load error
// (exit 1).
func TestAnalyzeErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(file, []byte("device,edge,sent_ms,done_ms,latency_ms,outcome\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "-in is required"},
		{[]string{"-bad-flag"}, 2, "-bad-flag"},
		{[]string{"-in", file}, 2, "-in takes a run-archive directory"},
		{[]string{"-in", filepath.Join(t.TempDir(), "missing")}, 1, "missing"},
	}
	for _, tc := range cases {
		var out, errBuf bytes.Buffer
		if code := run(tc.args, &out, &errBuf); code != tc.code || !strings.Contains(errBuf.String(), tc.want) {
			t.Errorf("args %v: exit %d, stderr %q; want exit %d naming %q", tc.args, code, errBuf.String(), tc.code, tc.want)
		}
	}
}

// TestWindowUsageErrors: a non-positive -window is a usage error (exit
// 2), caught before any input is read.
func TestWindowUsageErrors(t *testing.T) {
	for _, w := range []string{"0", "-5", "-0.5"} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-in", "/nonexistent.csv", "-window", w}, &out, &errBuf)
		if code != 2 {
			t.Errorf("-window %s: exit %d, want 2 (stderr: %s)", w, code, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), "-window") {
			t.Errorf("-window %s: error does not name the flag: %s", w, errBuf.String())
		}
	}
}

// simulateArchive replays one small simulation, with edge 0 failed from
// 2 s to 3.5 s and an 8-request queue cap, into a run archive whose event
// stream carries every request span.
func simulateArchive(t *testing.T, arDir string) {
	t.Helper()
	aw, err := runlog.Create(arDir, runlog.Manifest{Tool: "tacsim", Version: "devel", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	built, err := taccc.Scenario{NumIoT: 10, NumEdge: 2, Seed: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := taccc.NewGreedy().Assign(built.Instance)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := taccc.NewSimulator(taccc.SimConfig{
		UplinkMs:    built.Delay.DelayMs,
		Devices:     built.Devices,
		ServiceRate: taccc.ServiceRates(built.Capacity, 0.7),
		Assignment:  a.Of,
		MaxQueue:    8,
		Spans:       aw.Sink(),
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ScheduleEdgeFailure(2_000, 0); err != nil {
		t.Fatal(err)
	}
	if err := sim.ScheduleEdgeRecovery(3_500, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(obs.Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
}

// archiveAnalysis is tactrace's exact output on simulateArchive's run at
// -window 1000.
const archiveAnalysis = `records:    129 (61 completed, 26 missed deadline, 68 dropped)
latency:    mean=218.01ms p50=64.77ms p95=459.23ms p99=464.42ms
miss rate:  42.62%

per-edge completions:
  edge-0: 19
  edge-1: 42

time series (1000 ms windows):
start_ms  completed  dropped  mean_ms  p95_ms
       0         10        0    40.55    63.76
    1000         12        0    49.49    63.76
    2000          2        0    31.02    31.17
    3000         15       26   271.12   464.41
    4000         22       42   371.38   459.19
`

// TestAnalyzeArchive: -in reads a run-archive directory, recovering the
// request records from the archived span events, and prints exactly the
// pinned analysis.
func TestAnalyzeArchive(t *testing.T) {
	arDir := filepath.Join(t.TempDir(), "run")
	simulateArchive(t, arDir)

	var out, errBuf bytes.Buffer
	if code := run([]string{"-in", arDir, "-window", "1000"}, &out, &errBuf); code != 0 {
		t.Fatalf("archive exit %d: %s", code, errBuf.String())
	}
	if out.String() != archiveAnalysis {
		t.Errorf("archive analysis:\n%s\nwant:\n%s", out.String(), archiveAnalysis)
	}

	// A directory that is not an archive is a load error, not a panic.
	var o, e bytes.Buffer
	if code := run([]string{"-in", t.TempDir()}, &o, &e); code != 1 {
		t.Errorf("non-archive dir: exit %d, want 1 (stderr: %s)", code, e.String())
	}
}

// TestChromeValidation: -chrome strictly validates trace-event exports.
func TestChromeValidation(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "trace.json")
	var col obs.SpanCollector
	clock := obs.NewManualClock(0)
	tr := obs.NewTracer(&col, clock)
	root := tr.Root("pipeline")
	clock.Advance(3)
	ph := root.Child("solve")
	clock.Advance(4)
	ph.End()
	root.End()
	gf, err := os.Create(good)
	if err != nil {
		t.Fatal(err)
	}
	err = obs.WriteChromeTrace(gf, col.Spans())
	if cerr := gf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-chrome", good}, &out, &errBuf); code != 0 {
		t.Fatalf("-chrome on a real export: exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "valid") {
		t.Errorf("validation output: %s", out.String())
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents": [{"ph": "X"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-chrome", bad}, &out, &errBuf); code != 1 {
		t.Errorf("-chrome on malformed export: exit %d, want 1", code)
	}
	// A real export with bytes appended is no longer one JSON document.
	export, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trailing := filepath.Join(dir, "trailing.json")
	if err := os.WriteFile(trailing, append(export, "garbage"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-chrome", trailing}, &out, &errBuf); code != 1 {
		t.Errorf("-chrome on an export with trailing data: exit %d, want 1", code)
	}
	if code := run([]string{"-chrome", filepath.Join(dir, "missing.json")}, &out, &errBuf); code != 1 {
		t.Errorf("-chrome on missing file: exit %d, want 1", code)
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-version"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.HasPrefix(out.String(), "tactrace ") {
		t.Fatalf("version banner %q", out.String())
	}
}
