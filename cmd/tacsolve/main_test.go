package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	taccc "taccc"
	"taccc/internal/obs/runlog"
)

func writeInstance(t *testing.T) string {
	t.Helper()
	in, err := taccc.SyntheticInstance(taccc.SyntheticUniform, 12, 3, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := in.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSolveHeuristic(t *testing.T) {
	path := writeInstance(t)
	var out, errBuf bytes.Buffer
	code := run([]string{"-instance", path, "-algo", "greedy"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, want := range []string{"mean delay", "feasible:     true", "edge utilization"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSolveExactAndSave(t *testing.T) {
	path := writeInstance(t)
	outPath := filepath.Join(t.TempDir(), "a.json")
	var out, errBuf bytes.Buffer
	code := run([]string{"-instance", path, "-algo", "exact", "-o", outPath}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "proven optimal: true") {
		t.Fatalf("exact solve not proven:\n%s", out.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"of"`) {
		t.Fatal("assignment JSON missing")
	}
}

func TestList(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"qlearning", "greedy", "exact"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	path := writeInstance(t)
	cases := [][]string{
		{},                            // missing -instance
		{"-instance", "/nonexistent"}, // unreadable
		{"-instance", path, "-algo", "bogus"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code == 0 {
			t.Errorf("args %v: expected nonzero exit", args)
		}
	}
}

// TestSolveAll runs the comparison table sequentially and on four
// workers: apart from the wall-clock time column, the table rows and the
// archived summary.json must be identical.
func TestSolveAll(t *testing.T) {
	path := writeInstance(t)
	var tables []string
	files := map[string][]string{}
	for _, workers := range []string{"1", "4"} {
		dir := filepath.Join(t.TempDir(), "run")
		var out, errBuf bytes.Buffer
		code := run([]string{"-instance", path, "-algo", "all", "-workers", workers, "-archive", dir}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d: %s", workers, code, errBuf.String())
		}
		for _, want := range []string{"greedy", "qlearning", "minmax", "lower bound"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-workers %s: compare output missing %q", workers, want)
			}
		}
		var rows []string
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) == 5 {
				rows = append(rows, strings.Join(f[:4], " "))
			}
		}
		tables = append(tables, strings.Join(rows, "\n"))
		for _, name := range []string{runlog.SummaryFile, runlog.EventsFile, runlog.MetricsFile} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = append(files[name], string(data))
		}
	}
	if tables[0] != tables[1] {
		t.Errorf("table differs between -workers 1 and 4:\n%s\n---\n%s", tables[0], tables[1])
	}
	// Concurrent solvers' iteration events are replayed in registry
	// order, so the event stream, like the summary, is the same at any
	// -workers.
	for name, got := range files {
		if got[0] != got[1] {
			t.Errorf("%s differs between -workers 1 and 4", name)
		}
	}
	if !strings.Contains(files[runlog.EventsFile][0], `"algo":"qlearning"`) {
		t.Errorf("%s holds no qlearning iteration events", runlog.EventsFile)
	}
}
