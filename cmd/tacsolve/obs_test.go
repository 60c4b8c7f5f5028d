package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taccc/internal/obs"
)

func TestVersionFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-version"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.HasPrefix(out.String(), "tacsolve ") {
		t.Fatalf("version banner %q", out.String())
	}
}

// TestEventsStreamIsParseableConvergenceCurve covers the acceptance
// criterion: -algo qlearning -events out.jsonl yields one JSON line per
// episode with a non-increasing best cost.
func TestEventsStreamIsParseableConvergenceCurve(t *testing.T) {
	path := writeInstance(t)
	eventsPath := filepath.Join(t.TempDir(), "out.jsonl")
	var out, errBuf bytes.Buffer
	code := run([]string{"-instance", path, "-algo", "qlearning", "-events", eventsPath}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEventStream(f)
	if err != nil {
		t.Fatal(err)
	}
	prevBest := 0.0
	for i, e := range events {
		it, ok := e.Iter()
		if !ok || it.Algo != "qlearning" || it.Iter != i {
			t.Fatalf("event %d unexpected: %+v", i, e)
		}
		if it.Feasible {
			if prevBest > 0 && it.BestCost > prevBest+1e-9 {
				t.Fatalf("best cost regressed at iter %d: %v -> %v", it.Iter, prevBest, it.BestCost)
			}
			prevBest = it.BestCost
		}
	}
	if len(events) < 100 {
		t.Fatalf("only %d iteration events; expected one per episode", len(events))
	}
	if prevBest == 0 {
		t.Fatal("no feasible iteration in the stream")
	}
}

func TestMetricsOutSnapshot(t *testing.T) {
	path := writeInstance(t)
	metricsPath := filepath.Join(t.TempDir(), "m.json")
	var out, errBuf bytes.Buffer
	code := run([]string{"-instance", path, "-algo", "tabu", "-metrics-out", metricsPath}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not JSON: %v", err)
	}
	if snap.Counters["solver.tabu.iters"] == 0 {
		t.Fatalf("no solver.tabu.iters counter in %s", data)
	}
	if snap.Gauges["solver.tabu.best_cost_ms"] <= 0 {
		t.Fatalf("no solver.tabu.best_cost_ms gauge in %s", data)
	}
}

func TestProgressFlagPrintsImprovements(t *testing.T) {
	path := writeInstance(t)
	var out, errBuf bytes.Buffer
	code := run([]string{"-instance", path, "-algo", "lns", "-progress"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "lns") {
		t.Fatalf("-progress wrote nothing about the solver:\n%s", errBuf.String())
	}
}

func TestCompareAllWithEvents(t *testing.T) {
	path := writeInstance(t)
	eventsPath := filepath.Join(t.TempDir(), "all.jsonl")
	var out, errBuf bytes.Buffer
	code := run([]string{"-instance", path, "-algo", "all", "-events", eventsPath}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEventStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]bool{}
	for _, e := range events {
		if algo, ok := e.Str("algo"); ok {
			algos[algo] = true
		}
	}
	for _, want := range []string{"qlearning", "tabu", "lns"} {
		if !algos[want] {
			t.Errorf("no events from %s in -algo all stream (saw %v)", want, algos)
		}
	}
}

func TestCPUProfileFlag(t *testing.T) {
	path := writeInstance(t)
	profPath := filepath.Join(t.TempDir(), "cpu.pprof")
	var out, errBuf bytes.Buffer
	code := run([]string{"-instance", path, "-algo", "qlearning", "-cpuprofile", profPath}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	st, err := os.Stat(profPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("CPU profile is empty")
	}
}
