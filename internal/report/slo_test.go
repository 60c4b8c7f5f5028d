package report

import (
	"bytes"
	"strings"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
	"taccc/internal/obs/slo"
)

// sloStream drives a real tracker through an overloaded run and returns
// its event stream round-tripped through the canonical JSONL encoding —
// exactly what runlog.Load hands the report (json.Number fields).
func sloStream(t *testing.T) []obs.Event {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	tr, err := slo.New(slo.Config{
		WindowMs: 100,
		Objectives: []slo.Objective{
			{Name: "lat", Series: slo.SeriesE2E, Stat: slo.StatQuantile(0.95), Threshold: 20, Target: 0.90},
			{Name: "miss", Series: slo.SeriesE2E, Stat: slo.StatMiss, Threshold: 0.5, Target: 0.99},
		},
		Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Windows 0-1 comply (5 ms), windows 2-4 violate (500 ms): alert
	// fires at window 2 and force-resolves at Finish.
	for w := 0; w < 5; w++ {
		v := 5.0
		if w >= 2 {
			v = 500
		}
		tr.ObserveRequest(float64(w*100)+50, 1, 1, 2, 1, v, false)
	}
	tr.Finish(500)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadEventStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

func TestSLOFromEvents(t *testing.T) {
	r := SLOFromEvents(sloStream(t))
	if r == nil {
		t.Fatal("nil report from populated stream")
	}
	if r.Windows != 5 {
		t.Fatalf("windows = %d, want 5", r.Windows)
	}
	if len(r.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2", len(r.Objectives))
	}
	lat := r.Objectives[0]
	if lat.Name != "lat" || lat.Violations != 3 || lat.Windows != 5 {
		t.Fatalf("lat stat wrong: %+v", lat)
	}
	if lat.Met {
		t.Fatalf("lat objective met at 40%% compliance vs 90%% target")
	}
	if len(lat.WorstWindows) != 3 {
		t.Fatalf("worst windows = %d, want 3 (capped)", len(lat.WorstWindows))
	}
	// All three violating windows observed the same bucket bound; ties
	// break toward the earlier window.
	if lat.WorstWindows[0].Window != 2 {
		t.Fatalf("worst window = %d, want 2", lat.WorstWindows[0].Window)
	}
	if lat.WorstWindows[0].Observed <= 20 {
		t.Fatalf("worst observed %v not above threshold", lat.WorstWindows[0].Observed)
	}
	miss := r.Objectives[1]
	if !miss.Met || miss.Violations != 0 {
		t.Fatalf("miss objective should be clean: %+v", miss)
	}
	// Alert timeline: lat fires at window 2, end-of-run resolve.
	if len(r.Alerts) != 2 {
		t.Fatalf("alerts = %d, want 2: %+v", len(r.Alerts), r.Alerts)
	}
	if r.Alerts[0].State != "firing" || r.Alerts[0].Objective != "lat" || r.Alerts[0].Window != 2 {
		t.Fatalf("fire transition wrong: %+v", r.Alerts[0])
	}
	if r.Alerts[1].State != "resolved" || r.Alerts[1].Reason != "end-of-run" {
		t.Fatalf("resolve transition wrong: %+v", r.Alerts[1])
	}
}

func TestSLOFromEventsEmpty(t *testing.T) {
	if r := SLOFromEvents(nil); r != nil {
		t.Fatalf("nil stream produced %+v", r)
	}
	if r := SLOFromEvents([]obs.Event{{Kind: "span"}}); r != nil {
		t.Fatalf("stream without SLO events produced %+v", r)
	}
}

func sloArchive(t *testing.T) *runlog.Archive {
	t.Helper()
	return &runlog.Archive{
		Manifest: runlog.Manifest{Format: runlog.FormatVersion, Tool: "tacsim", Version: "test", Seed: 1},
		Summary:  runlog.Summary{},
		SLO:      sloStream(t),
	}
}

func TestSummarizeRendersSLOSection(t *testing.T) {
	src := &Source{Kind: "archive", Path: "mem", Archive: sloArchive(t)}
	r := Summarize(src)
	if r.SLO == nil {
		t.Fatal("Summarize dropped the SLO stream")
	}
	md := r.Markdown()
	for _, want := range []string{
		"## SLO compliance",
		"5 evaluated window(s)",
		"| lat | e2e.p95<=20 | 5 | 3 |",
		"**VIOLATED**",
		"| miss |",
		"| met |",
		"worst windows for lat",
		"### Alert timeline",
		"**lat FIRED**",
		"resolved (end-of-run)",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestSummarizeWithoutSLOHasNoSection(t *testing.T) {
	a := sloArchive(t)
	a.SLO = nil
	r := Summarize(&Source{Kind: "archive", Path: "mem", Archive: a})
	if r.SLO != nil {
		t.Fatalf("SLO report without slo.jsonl: %+v", r.SLO)
	}
	if strings.Contains(r.Markdown(), "SLO compliance") {
		t.Fatal("markdown renders SLO section without SLO data")
	}
}

func TestSLOMetricsForDiff(t *testing.T) {
	src := &Source{Kind: "archive", Path: "mem", Archive: sloArchive(t)}
	got := map[string]Metric{}
	for _, m := range src.Metrics() {
		got[m.Name] = m
	}
	comp, ok := got["slo/lat compliance_pct"]
	if !ok {
		t.Fatalf("missing slo/lat compliance_pct in %v", got)
	}
	if comp.Value != 40 || !comp.HigherIsBetter || comp.CI95 != 0 {
		t.Fatalf("compliance metric wrong: %+v", comp)
	}
	if v := got["slo/lat violations"]; v.Value != 3 || v.HigherIsBetter {
		t.Fatalf("violations metric wrong: %+v", v)
	}
	if v := got["slo/lat budget_remaining"]; !v.HigherIsBetter {
		t.Fatalf("budget metric should improve upward: %+v", v)
	}
	if v := got["slo/miss compliance_pct"]; v.Value != 100 {
		t.Fatalf("miss compliance = %v, want 100", v.Value)
	}
	// Diffing identical SLO streams must stay clean.
	d, err := DiffSources(src, &Source{Kind: "archive", Path: "mem2", Archive: sloArchive(t)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sloRows := 0
	for _, md := range d.Metrics {
		if !strings.HasPrefix(md.Name, "slo/") {
			continue
		}
		sloRows++
		if md.Verdict != VerdictOK {
			t.Fatalf("identical SLO streams judged %s: %+v", md.Verdict, md)
		}
	}
	if sloRows == 0 {
		t.Fatal("diff carried no slo/ metrics")
	}
}
