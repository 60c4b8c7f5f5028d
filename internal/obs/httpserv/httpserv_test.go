package httpserv

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"taccc/internal/jsonx"
	"taccc/internal/obs"
)

func demoRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("cluster.requests.sent").Add(100)
	reg.Counter("cluster.requests.completed").Add(97)
	reg.Gauge("cluster.edge.0.queue_depth").Set(3)
	h := reg.Histogram("cluster.latency_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	return reg
}

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"cluster.latency_ms":     "cluster_latency_ms",
		"cluster.delay.queue_ms": "cluster_delay_queue_ms",
		"edge-0 depth":           "edge_0_depth",
		"0starts_with_digit":     "_0starts_with_digit",
		"already_fine:ok":        "already_fine:ok",
	}
	for in, want := range cases {
		if got := MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// demoExposition is WriteMetrics' output for demoRegistry: counters,
// then gauges, then histograms, each family sorted by name, with
// cumulative buckets ending in +Inf == count.
const demoExposition = `# TYPE cluster_requests_completed counter
cluster_requests_completed 97
# TYPE cluster_requests_sent counter
cluster_requests_sent 100
# TYPE cluster_edge_0_queue_depth gauge
cluster_edge_0_queue_depth 3
# TYPE cluster_latency_ms histogram
cluster_latency_ms_bucket{le="1"} 1
cluster_latency_ms_bucket{le="10"} 2
cluster_latency_ms_bucket{le="100"} 3
cluster_latency_ms_bucket{le="+Inf"} 4
cluster_latency_ms_sum 555.5
cluster_latency_ms_count 4
`

// TestWriteMetricsParses pins the /metrics exposition byte for byte, the
// text outside scrapers parse.
func TestWriteMetricsParses(t *testing.T) {
	var sb strings.Builder
	if err := WriteMetrics(&sb, demoRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != demoExposition {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, demoExposition)
	}
}

func TestWriteMetricsEmptyAndNil(t *testing.T) {
	var sb strings.Builder
	if err := WriteMetrics(&sb, (*obs.Registry)(nil).Snapshot()); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("empty registry exposes %q, want nothing", sb.String())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := demoRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if body != demoExposition {
		t.Fatalf("/metrics:\n%s\nwant:\n%s", body, demoExposition)
	}

	body, _ = get("/healthz")
	if body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}

	body, ct = get("/snapshot")
	if ct != "application/json" {
		t.Fatalf("/snapshot Content-Type = %q", ct)
	}
	var snap obs.Snapshot
	if err := jsonx.Decode(strings.NewReader(body), &snap); err != nil {
		t.Fatalf("/snapshot does not decode: %v", err)
	}
	if !reflect.DeepEqual(snap, reg.Snapshot()) {
		t.Fatalf("/snapshot = %+v, want %+v", snap, reg.Snapshot())
	}

	body, _ = get("/debug/pprof/cmdline")
	if body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// TestHandlerNonFiniteValues: a registry holding an infinite gauge and
// histogram sum still exposes them on /metrics, while /snapshot, which
// has no JSON form for them, answers 500 and names the cause instead of
// an empty 200.
func TestHandlerNonFiniteValues(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("g").Set(math.Inf(1))
	reg.Histogram("h", []float64{1}).Observe(math.Inf(1))
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	for _, tc := range []struct {
		path, want string
		code       int
	}{
		{"/metrics", "g +Inf\n", http.StatusOK},
		{"/metrics", "h_sum +Inf\n", http.StatusOK},
		{"/snapshot", "json: unsupported value: +Inf", http.StatusInternalServerError},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code || !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s: %s %q, want %d with %q", tc.path, resp.Status, body, tc.code, tc.want)
		}
	}
}

func TestStartServesAndCloses(t *testing.T) {
	reg := demoRegistry()
	s, err := Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

func TestPromFloatSpecials(t *testing.T) {
	if promFloat(math.Inf(1)) != "+Inf" || promFloat(math.Inf(-1)) != "-Inf" || promFloat(math.NaN()) != "NaN" {
		t.Fatal("special float rendering broken")
	}
	if promFloat(2.5) != "2.5" {
		t.Fatalf("promFloat(2.5) = %q", promFloat(2.5))
	}
}
