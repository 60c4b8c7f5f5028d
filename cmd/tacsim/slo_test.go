package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
)

// runArchivedSLO runs an overloaded, drop-prone scenario so windows
// violate objectives and alerts fire.
func runArchivedSLO(t *testing.T, dir string, workers int, sloSpec string) string {
	t.Helper()
	var out, errBuf bytes.Buffer
	args := []string{
		"-iot", "60", "-edge", "3", "-algo", "greedy", "-duration", "5",
		"-warmup", "1", "-seed", "11", "-rho", "0.98", "-max-queue", "40",
		"-workers", strconv.Itoa(workers), "-archive", dir,
	}
	if sloSpec != "" {
		args = append(args, "-slo", sloSpec, "-slo-window", "0.5")
	}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("workers=%d slo=%q: exit %d: %s", workers, sloSpec, code, errBuf.String())
	}
	return out.String()
}

// TestSLOFlagValidation pins the usage-error contract: a bad spec or a
// non-positive window is exit 2 before any simulation runs.
func TestSLOFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-slo", "p95<=20", "-slo-window", "0"},
		{"-slo", "p95<=20", "-slo-window", "-1"},
		{"-slo", "bogus<=x"},
		{"-slo", "p95>=20"},
		{"-slo", "p95<=20@0"},
	}
	for _, extra := range cases {
		var out, errBuf bytes.Buffer
		args := append([]string{"-iot", "10", "-edge", "2", "-duration", "1"}, extra...)
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr %q)", extra, code, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), "tacsim:") {
			t.Errorf("args %v: no usage diagnostic: %q", extra, errBuf.String())
		}
	}
}

// TestSLOArchiveAlertsAndRoundTrip is the acceptance run: an overloaded
// scenario with -slo produces windowed quantiles, at least one fired and
// one resolved alert, and an slo.jsonl that runlog.Load round-trips.
func TestSLOArchiveAlertsAndRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	out := runArchivedSLO(t, dir, 1, "p95<=20@90,miss<=0.05")
	if !strings.Contains(out, "slo:") || !strings.Contains(out, "compliance") {
		t.Fatalf("stdout missing SLO summary:\n%s", out)
	}

	ar, err := runlog.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.SLO) == 0 {
		t.Fatal("slo.jsonl empty or missing")
	}
	kinds := map[string]int{}
	fired, resolved := false, false
	for _, e := range ar.SLO {
		kinds[e.Kind]++
		if e.Kind == "slo-alert" {
			if s, _ := e.Str("state"); s == "firing" {
				fired = true
			} else if s == "resolved" {
				resolved = true
			}
		}
	}
	for _, k := range []string{"slo-window", "slo-eval", "slo-alert", "slo-objective"} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in archive: %v", k, kinds)
		}
	}
	if !fired || !resolved {
		t.Fatalf("want a fired and a resolved alert under overload, got fired=%v resolved=%v (%v)",
			fired, resolved, kinds)
	}

	// Execution-only: the slo flags must not leak into the manifest config.
	for _, k := range []string{"slo", "slo-window"} {
		if _, ok := ar.Manifest.Config[k]; ok {
			t.Fatalf("execution-only flag %q archived: %v", k, ar.Manifest.Config)
		}
	}

	// Re-encoding the loaded stream must reproduce slo.jsonl byte for byte.
	da, err := os.ReadFile(filepath.Join(dir, runlog.SLOFile))
	if err != nil {
		t.Fatal(err)
	}
	var db bytes.Buffer
	sink := obs.NewJSONL(&db)
	for _, e := range ar.SLO {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db.Bytes()) {
		t.Fatal("slo.jsonl not byte-identical after a load and re-encode round trip")
	}
}

// TestSLODeterminism is the plane's core contract: the deterministic
// archive files are byte-identical with the plane on or off at any
// worker count, and slo.jsonl itself is byte-identical across worker
// counts.
func TestSLODeterminism(t *testing.T) {
	base := t.TempDir()
	off1 := filepath.Join(base, "off-w1")
	on1 := filepath.Join(base, "on-w1")
	on8 := filepath.Join(base, "on-w8")
	runArchivedSLO(t, off1, 1, "")
	runArchivedSLO(t, on1, 1, "p95<=20@90,miss<=0.05")
	runArchivedSLO(t, on8, 8, "p95<=20@90,miss<=0.05")

	read := func(dir, name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, name := range []string{runlog.EventsFile, runlog.MetricsFile, runlog.SummaryFile} {
		want := read(off1, name)
		if !bytes.Equal(want, read(on1, name)) {
			t.Errorf("%s differs with -slo on vs off", name)
		}
		if !bytes.Equal(want, read(on8, name)) {
			t.Errorf("%s differs between workers=1 (slo off) and workers=8 (slo on)", name)
		}
	}
	if !bytes.Equal(read(on1, runlog.SLOFile), read(on8, runlog.SLOFile)) {
		t.Error("slo.jsonl differs between workers=1 and workers=8")
	}
	if _, err := os.Stat(filepath.Join(off1, runlog.SLOFile)); !os.IsNotExist(err) {
		t.Errorf("slo.jsonl present without -slo (err=%v)", err)
	}
}
