package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
)

// TestTraceHasDownlinkMatrixSpan: the downlink delay matrix tacsim builds
// after the solve is its own child of the root span, between "solve" and
// "simulate".
func TestTraceHasDownlinkMatrixSpan(t *testing.T) {
	dir := t.TempDir()
	arDir := filepath.Join(dir, "run")
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-iot", "30", "-edge", "4", "-algo", "greedy", "-duration", "5", "-warmup", "1", "-seed", "11",
		"-trace-out", filepath.Join(dir, "trace.json"), "-archive", arDir,
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	ar, err := runlog.Load(arDir)
	if err != nil {
		t.Fatal(err)
	}
	spans := ar.Spans()
	var root obs.SpanID
	for _, sp := range spans {
		if sp.Parent == 0 && sp.Name == "tacsim" {
			root = sp.ID
		}
	}
	start := map[string]float64{}
	for _, sp := range spans {
		if root != 0 && sp.Parent == root {
			start[sp.Name] = sp.StartMs
		}
	}
	for _, name := range []string{"solve", "downlink-matrix", "simulate"} {
		if _, ok := start[name]; !ok {
			t.Fatalf("no %q child of the root span; got %v", name, start)
		}
	}
	if !(start["solve"] <= start["downlink-matrix"] && start["downlink-matrix"] <= start["simulate"]) {
		t.Fatalf("downlink-matrix span out of order: %v", start)
	}
}
