package main

import (
	"bytes"
	"strings"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/obs/httpserv"
	"taccc/internal/obs/slo"
)

func simRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("cluster.requests_sent").Add(1000)
	reg.Counter("cluster.requests_ok").Add(940)
	reg.Counter("cluster.requests_missed").Add(50)
	reg.Counter("cluster.requests_dropped").Add(10)
	reg.Gauge("cluster.edge_0.queue_depth").Set(4)
	reg.Gauge("cluster.edge_1.queue_depth").Set(0)
	for _, name := range []string{
		"cluster.latency_ms",
		"cluster.delay.uplink_ms",
		"cluster.delay.queue_ms",
		"cluster.delay.service_ms",
		"cluster.delay.downlink_ms",
	} {
		h := reg.Histogram(name, obs.DefaultLatencyBucketsMs())
		for _, v := range []float64{1, 4, 9, 45, 180} {
			h.Observe(v)
		}
	}
	return reg
}

func TestRunRendersOneSnapshot(t *testing.T) {
	srv, err := httpserv.Start("127.0.0.1:0", simRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", srv.Addr(), "-n", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "sent 1000") || !strings.Contains(out, "miss 5.05%") {
		t.Fatalf("header wrong:\n%s", out)
	}
	for _, phase := range []string{"uplink", "queue", "service", "downlink", "e2e"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("missing phase row %q:\n%s", phase, out)
		}
	}
	if !strings.Contains(out, "edge   0  queue 4") || !strings.Contains(out, "edge   1  queue 0") {
		t.Fatalf("edge lines wrong:\n%s", out)
	}
	// p50 over {1,4,9,45,180} with default buckets: target 3rd of 5 -> bucket bound 10.
	if !strings.Contains(out, "10.00") {
		t.Fatalf("phase quantiles missing:\n%s", out)
	}
}

func TestRunHandlesEmptyRegistry(t *testing.T) {
	srv, err := httpserv.Start("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", srv.Addr(), "-n", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "uplink") {
		t.Fatalf("phase table should still render with dashes:\n%s", stdout.String())
	}
}

func TestRunReportsUnreachableServer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:1", "-n", "1"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "tactop:") {
		t.Fatalf("no error reported: %q", stderr.String())
	}
}

func TestRenderResources(t *testing.T) {
	base := map[string]float64{
		"sysmon.samples_total":       10,
		"sysmon.interval_ms":         250,
		"sysmon.last_sample_unix_ms": 1_000_000,
		"go.heap_alloc_bytes":        64 << 20,
		"go.heap_inuse_bytes":        96 << 20,
		"proc.rss_bytes":             128 << 20,
		"go.goroutines":              9,
		"go.gc_cycles_total":         4,
		"go.gc_pause_ms_total":       1.25,
		"go.alloc_bytes_per_s":       2 << 20,
	}

	// Fresh sample (100 ms old): full panel, no STALE flag.
	var buf bytes.Buffer
	renderResources(&buf, base, 1_000_100)
	out := buf.String()
	for _, want := range []string{"resources", "64.0 MB/96.0 MB", "rss 128.0 MB", "goroutines 9", "gc 4 (1.25 ms)", "2.0 MB/s", "sampled 0.1s ago"} {
		if !strings.Contains(out, want) {
			t.Errorf("panel missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "STALE") {
		t.Errorf("fresh sample flagged STALE:\n%s", out)
	}

	// Stale sample: older than 3 intervals and over a second.
	buf.Reset()
	renderResources(&buf, base, 1_000_000+5_000)
	if !strings.Contains(buf.String(), "STALE") {
		t.Errorf("5s-old sample at 250ms interval not flagged STALE:\n%s", buf.String())
	}

	// Old but within 3 intervals of a slow sampler: not stale.
	slow := map[string]float64{}
	for k, v := range base {
		slow[k] = v
	}
	slow["sysmon.interval_ms"] = 10_000
	buf.Reset()
	renderResources(&buf, slow, 1_000_000+5_000)
	if strings.Contains(buf.String(), "STALE") {
		t.Errorf("5s-old sample at 10s interval flagged STALE:\n%s", buf.String())
	}

	// No sysmon metrics in the snapshot: the panel is absent entirely.
	buf.Reset()
	renderResources(&buf, map[string]float64{"cluster.requests_sent": 10}, 1_000_000)
	if buf.Len() != 0 {
		t.Errorf("panel rendered without sysmon metrics: %q", buf.String())
	}
}

func TestRenderSLO(t *testing.T) {
	base := map[string]float64{
		"slo.windows_total":                12,
		"slo.alerts_total":                 1,
		"slo.window.index":                 14,
		"slo.window.start_ms":              14_000,
		"slo.window_ms":                    1_000,
		"slo.window.e2e.p50_ms":            10,
		"slo.window.e2e.p95_ms":            50,
		"slo.window.e2e.p99_ms":            100,
		"slo.window.e2e.mean_ms":           18.5,
		"slo.window.e2e.count":             240,
		"slo.window.uplink.p50_ms":         2,
		"slo.window.uplink.p95_ms":         5,
		"slo.window.uplink.p99_ms":         5,
		"slo.window.uplink.mean_ms":        2.2,
		"slo.window.uplink.count":          240,
		"slo.window.e2e.miss_rate":         0.0125,
		"slo.obj.e2e_p95.compliance_pct":   91.67,
		"slo.obj.e2e_p95.target_pct":       99,
		"slo.obj.e2e_p95.violations":       1,
		"slo.obj.e2e_p95.windows":          12,
		"slo.obj.e2e_p95.budget_remaining": -0.88,
		"slo.obj.e2e_p95.burn_rate":        1.67,
		"slo.obj.e2e_p95.firing":           1,
	}
	var buf bytes.Buffer
	renderSLO(&buf, base)
	out := buf.String()
	for _, want := range []string{
		"slo window 14 (t=14.0s, width 1.0s)  closed 12  alert transitions 1",
		"e2e", "uplink",
		"window miss rate 1.25%",
		"obj e2e_p95",
		"compliance  91.67% (target 99.0%)",
		"violations 1/12",
		"budget  -0.88",
		"burn  1.67",
		"FIRING",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SLO panel missing %q:\n%s", want, out)
		}
	}
	// Series with no samples in the current window are omitted, not
	// rendered as zeros.
	if strings.Contains(out, "queue") || strings.Contains(out, "downlink") {
		t.Errorf("empty series rendered:\n%s", out)
	}

	// Objective not firing: no FIRING flag.
	calm := map[string]float64{}
	for k, v := range base {
		calm[k] = v
	}
	calm["slo.obj.e2e_p95.firing"] = 0
	buf.Reset()
	renderSLO(&buf, calm)
	if strings.Contains(buf.String(), "FIRING") {
		t.Errorf("non-firing objective flagged FIRING:\n%s", buf.String())
	}

	// No SLO metrics in the snapshot: the panel is absent entirely.
	buf.Reset()
	renderSLO(&buf, map[string]float64{"cluster.requests_sent": 10})
	if buf.Len() != 0 {
		t.Errorf("panel rendered without slo metrics: %q", buf.String())
	}
}

// TestRunRendersSLOFromLiveTracker drives the real pipeline: an slo
// Tracker populates its registry, httpserv exposes it, and tactop's one
// poll renders the panel.
func TestRunRendersSLOFromLiveTracker(t *testing.T) {
	reg := obs.NewRegistry()
	tr, err := slo.New(slo.Config{
		WindowMs: 1000,
		Objectives: []slo.Objective{
			{Series: slo.SeriesE2E, Stat: slo.StatQuantile(0.95), Threshold: 20, Target: 0.99},
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tr.Observe(float64(i*20), 150, false)
	}
	tr.Finish(1000)
	srv, err := httpserv.Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", srv.Addr(), "-n", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "slo window") || !strings.Contains(out, "obj e2e_p95") {
		t.Fatalf("SLO panel missing from live render:\n%s", out)
	}
	if !strings.Contains(out, "compliance   0.00%") {
		t.Fatalf("violating objective should render 0%% compliance:\n%s", out)
	}
}

func TestRunVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d", code)
	}
	if !strings.Contains(stdout.String(), "tactop") {
		t.Fatalf("version banner missing: %q", stdout.String())
	}
}
