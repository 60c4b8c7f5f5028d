package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"T1", "T3", "F1", "F8"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestRunOneQuick(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-exp", "F5", "-quick", "-reps", "1", "-seed", "3"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "F5") || !strings.Contains(out.String(), "completed in") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunCSV(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-exp", "F6", "-quick", "-reps", "1", "-csv"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "family,") {
		t.Fatalf("CSV header missing:\n%s", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-exp", "Z9"}, &out, &errBuf); code == 0 {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errBuf); code == 0 {
		t.Fatal("bad flag accepted")
	}
}

func TestOutdirWritesCSVs(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	code := run([]string{"-exp", "F5", "-quick", "-reps", "1", "-outdir", dir}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "F5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "n,") {
		t.Fatalf("CSV content unexpected: %q", string(data[:30]))
	}
}

// TestBadRepsIsUsageError: a negative -reps exits 2 naming the flag,
// rather than running the default number of replications.
func TestBadRepsIsUsageError(t *testing.T) {
	for _, reps := range []string{"-3", "-1"} {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-exp", "F6", "-quick", "-reps", reps, "-csv"}, &out, &errBuf); code != 2 {
			t.Errorf("-reps %s: exit %d, want 2 (stderr %q)", reps, code, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), "-reps") {
			t.Errorf("-reps %s: message %q does not name the flag", reps, errBuf.String())
		}
		if out.Len() != 0 {
			t.Errorf("-reps %s: usage exit printed results: %q", reps, out.String())
		}
	}
}
