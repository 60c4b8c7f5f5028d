package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// small returns a copy of the named workload scaled down for tests.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.iot, c.edge, c.instances = 120, 6, 1
	if w.sim != nil {
		s := *w.sim
		s.durationS, s.warmupS = 20, 2
		c.sim = &s
	}
	return &c
}

func TestTracingIsObservational(t *testing.T) {
	for _, name := range []string{"rl-solve", "wide-greedy", "sim-observed"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			b := &bench{w: w, seed: 7, workers: 2}
			u, err := b.untraced(b.seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, err := range u.checkErrs {
				t.Errorf("untraced pass: %v", err)
			}
			// traced fails when the traced pass's assignment hash or
			// simulation result differs from the untraced pass.
			figs, err := b.traced(b.seed, u, u.wallMs, true)
			if err != nil {
				t.Fatal(err)
			}
			if (w.sim != nil) != (u.sim != nil) {
				t.Fatalf("simulation result present = %v, want %v", u.sim != nil, w.sim != nil)
			}
			got := map[string]float64{}
			for _, f := range figs {
				got[f.name] = f.value
			}
			if got["trace.coverage_pct"] < 95 {
				t.Errorf("layer spans cover %.1f%% of the traced pass, want >= 95", got["trace.coverage_pct"])
			}
			if got["topology.dijkstra_runs"] == 0 || got["gap.matrix_bytes"] != 2*120*6*8 {
				t.Errorf("counts: dijkstra_runs %v, matrix_bytes %v", got["topology.dijkstra_runs"], got["gap.matrix_bytes"])
			}
			if w.sim != nil && (got["cluster.requests"] == 0 || got["obs.spans_emitted"] == 0 || got["obs.slo_windows"] != 20) {
				t.Errorf("sim counts: requests %v, spans %v, slo windows %v",
					got["cluster.requests"], got["obs.spans_emitted"], got["obs.slo_windows"])
			}
		})
	}
}

// TestFiguresMatchSpecs keeps the per-layer figures a traced iteration
// produces in step with the reported metric list.
func TestFiguresMatchSpecs(t *testing.T) {
	w := small(t, "sim-observed")
	b := &bench{w: w, seed: 3, workers: 1}
	u, err := b.untraced(b.seed)
	if err != nil {
		t.Fatal(err)
	}
	figs, err := b.traced(b.seed, u, u.wallMs, true)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, f := range figs {
		got = append(got, f.name)
	}
	// Added per iteration by bench.iterate, and by report.
	got = append(got, "cli_max_rss_mb", "failed_frac", "gap_pct")
	for _, m := range perLayer {
		want = append(want, m.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("figures\n  %v\nmetrics\n  %v", got, want)
	}
}

func TestChecksCatchWrongAnswers(t *testing.T) {
	w := small(t, "rl-solve")
	r, err := runPipeline(w, 5, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkRun(w, r); len(errs) != 0 {
		t.Fatalf("valid run failed its checks: %v", errs)
	}
	total, lb := r.total, r.lowerBound
	r.total = total * (1 + 1e-15)
	if errs := checkRun(w, r); len(errs) == 0 {
		t.Error("a TotalCost a few ulps off passed the re-cost check")
	}
	r.total, r.lowerBound = total, total*1.01
	if errs := checkRun(w, r); len(errs) == 0 {
		t.Error("a lower bound above the cost passed")
	}
	r.lowerBound = lb
	for i := range r.got.Of {
		r.got.Of[i] = 0
	}
	if errs := checkRun(w, r); len(errs) == 0 {
		t.Error("every device on one edge passed the capacity check")
	}
}

func TestCrossCheck(t *testing.T) {
	out := "algorithm:    greedy\nmean delay:   4.097 ms\r\nfeasible:     true\n"
	if err := crossCheck([]string{"mean delay:   4.097 ms", "feasible:     true"}, out); err != nil {
		t.Errorf("matching output: %v", err)
	}
	err := crossCheck([]string{"mean delay:   4.098 ms"}, out)
	if err == nil || !strings.Contains(err.Error(), "4.098") {
		t.Errorf("mismatch not reported: %v", err)
	}
}

func TestReportPoolsAndAggregates(t *testing.T) {
	o := &outcome{attempted: 3, samples: map[string][]float64{}}
	for _, v := range []float64{3, 1, 2} {
		for _, m := range append(endToEnd, perLayer...) {
			if m.name != "mean_delay_ms" && m.name != "gap_pct" && m.name != "failed_frac" {
				o.add(m.name, v)
			}
		}
	}
	o.instances, o.sumTotal, o.sumLB, o.sumMean = 2, 220, 200, 9
	e2e, err := report(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if !e2e.Correct || len(e2e.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", e2e)
	}
	if v := e2e.Metrics["wall_s"].Value; v != 2 {
		t.Errorf("wall_s = %v, want the median 2", v)
	}
	if v := e2e.Metrics["mean_delay_ms"].Value; v != 4.5 {
		t.Errorf("mean_delay_ms = %v, want 4.5", v)
	}
	layers, err := report(o, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers.Metrics) != len(perLayer) {
		t.Fatalf("per-layer result has %d metrics, want %d", len(layers.Metrics), len(perLayer))
	}
	if v := layers.Metrics["gap_pct"].Value; v != 10 {
		t.Errorf("gap_pct = %v, want 10", v)
	}
	if v := layers.Metrics["topology.nodes"].Value; v != 3 {
		t.Errorf("topology.nodes = %v, want the first sample 3", v)
	}
}

// TestSpecsMatchBenchmarkJSON keeps the metric lists in step with the
// repository's BENCHMARK.json.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if _, err := workloadByName(sw.Name); err != nil {
			t.Error(err)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the driver %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), driver %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
