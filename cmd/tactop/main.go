// Command tactop is a live text view over a running taccc telemetry
// server (tacsim/tacsolve/tacbench with -listen): it polls /snapshot,
// the run's one metrics registry as JSON, reads the request counters and
// per-phase delay histograms by their registry names, and renders a
// top-style summary — request totals and miss rate, p50/p95/p99
// per delay phase, one line per edge with its queue depth, (when the
// producer runs with -slo) an SLO panel: the latest closed window's
// per-series quantiles plus one line per objective with compliance,
// error budget, burn rate and a FIRING flag, and (when the producer runs
// with -sysmon) a resources panel: heap, RSS, goroutines, GC and
// allocation rate, plus the age of the last resource sample so a wedged
// run shows STALE instead of silently frozen gauges.
//
// Usage:
//
//	tacsim -listen :9477 -linger 1m &
//	tactop -addr 127.0.0.1:9477
//	tactop -addr 127.0.0.1:9477 -n 1          # one snapshot, then exit
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"taccc/internal/cliutil"
	"taccc/internal/jsonx"
	"taccc/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tactop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:9477", "telemetry server address (host:port)")
		interval = fs.Duration("interval", 2*time.Second, "poll interval")
		n        = fs.Int("n", 0, "number of polls before exiting (0 = poll forever)")
	)
	version := cliutil.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		cliutil.FprintVersion(stdout, "tactop")
		return 0
	}
	url := "http://" + *addr + "/snapshot"
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		snap, err := fetch(url)
		if err != nil {
			fmt.Fprintf(stderr, "tactop: %v\n", err)
			return 1
		}
		render(stdout, *addr, snap)
	}
	return 0
}

func fetch(url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The status is the error; the body, read as far as it goes,
		// only names its cause.
		body, _ := io.ReadAll(resp.Body)
		return snap, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := jsonx.Decode(resp.Body, &snap); err != nil {
		return snap, fmt.Errorf("GET %s: %w", url, err)
	}
	return snap, nil
}

var edgeDepthRe = regexp.MustCompile(`^cluster\.edge_(\d+)\.queue_depth$`)

// render writes one refresh of the live view from a registry snapshot.
func render(w io.Writer, addr string, snap obs.Snapshot) {
	// Counters and gauges share one namespace in a registry, so the
	// panels read both from one table.
	scalar := make(map[string]float64, len(snap.Counters)+len(snap.Gauges))
	for name, v := range snap.Counters {
		scalar[name] = float64(v)
	}
	for name, v := range snap.Gauges {
		scalar[name] = v
	}
	sent := scalar["cluster.requests_sent"]
	ok := scalar["cluster.requests_ok"]
	missed := scalar["cluster.requests_missed"]
	dropped := scalar["cluster.requests_dropped"]
	missPct := 0.0
	if finished := ok + missed; finished > 0 {
		missPct = 100 * missed / finished
	}
	fmt.Fprintf(w, "taccc @ %s  sent %.0f  ok %.0f  missed %.0f  dropped %.0f  miss %.2f%%\n",
		addr, sent, ok, missed, dropped, missPct)

	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s\n", "phase", "p50 ms", "p95 ms", "p99 ms", "mean ms")
	phases := []struct{ label, metric string }{
		{"uplink", "cluster.delay.uplink_ms"},
		{"queue", "cluster.delay.queue_ms"},
		{"service", "cluster.delay.service_ms"},
		{"downlink", "cluster.delay.downlink_ms"},
		{"e2e", "cluster.latency_ms"},
	}
	for _, p := range phases {
		h := snap.Histograms[p.metric]
		if h.Count == 0 {
			fmt.Fprintf(w, "%-10s %10s %10s %10s %10s\n", p.label, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-10s %10s %10s %10s %10.2f\n", p.label,
			quantStr(h.Quantile(0.5)), quantStr(h.Quantile(0.95)), quantStr(h.Quantile(0.99)), h.Mean)
	}

	type edge struct {
		idx   int
		depth float64
	}
	var edges []edge
	for name, v := range scalar {
		if m := edgeDepthRe.FindStringSubmatch(name); m != nil {
			idx, _ := strconv.Atoi(m[1])
			edges = append(edges, edge{idx: idx, depth: v})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].idx < edges[j].idx })
	for _, e := range edges {
		fmt.Fprintf(w, "edge %3d  queue %.0f\n", e.idx, e.depth)
	}
	renderSLO(w, scalar)
	renderResources(w, scalar, time.Now().UnixMilli())
	fmt.Fprintln(w)
}

var sloObjRe = regexp.MustCompile(`^slo\.obj\.(.+)\.compliance_pct$`)

// sloSeries mirrors the tracker's emission order; the panel's rows.
var sloSeries = []string{"e2e", "uplink", "queue", "service", "downlink"}

// renderSLO writes the SLO panel when the snapshot carries slo.* gauges
// (producer ran with -slo) and at least one window has closed: the
// latest closed window's per-series quantiles, then one line per
// objective with compliance, remaining error budget, burn rate and the
// firing state. Objectives are discovered from the snapshot itself
// (slo.obj.<name>.compliance_pct), so the panel tracks whatever spec the
// producer was started with.
func renderSLO(w io.Writer, scalar map[string]float64) {
	if scalar["slo.windows_total"] <= 0 {
		return
	}
	fmt.Fprintf(w, "slo window %.0f (t=%.1fs, width %.1fs)  closed %.0f  alert transitions %.0f\n",
		scalar["slo.window.index"], scalar["slo.window.start_ms"]/1000,
		scalar["slo.window_ms"]/1000, scalar["slo.windows_total"], scalar["slo.alerts_total"])
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %8s\n", "window", "p50 ms", "p95 ms", "p99 ms", "mean ms", "count")
	for _, s := range sloSeries {
		p := "slo.window." + s + "."
		if scalar[p+"count"] <= 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %10.2f %10.2f %10.2f %10.2f %8.0f\n", s,
			scalar[p+"p50_ms"], scalar[p+"p95_ms"], scalar[p+"p99_ms"], scalar[p+"mean_ms"], scalar[p+"count"])
	}
	if mr, ok := scalar["slo.window.e2e.miss_rate"]; ok {
		fmt.Fprintf(w, "window miss rate %.2f%%\n", 100*mr)
	}
	var names []string
	for name := range scalar {
		if m := sloObjRe.FindStringSubmatch(name); m != nil {
			names = append(names, m[1])
		}
	}
	sort.Strings(names)
	for _, name := range names {
		p := "slo.obj." + name + "."
		flag := ""
		if scalar[p+"firing"] > 0 {
			flag = "  FIRING"
		}
		fmt.Fprintf(w, "obj %-16s compliance %6.2f%% (target %.1f%%)  violations %.0f/%.0f  budget %+6.2f  burn %5.2f%s\n",
			name, scalar[p+"compliance_pct"], scalar[p+"target_pct"],
			scalar[p+"violations"], scalar[p+"windows"],
			scalar[p+"budget_remaining"], scalar[p+"burn_rate"], flag)
	}
}

// renderResources writes the sysmon panel when the snapshot carries
// resource metrics (producer ran with -sysmon): heap and RSS levels,
// goroutines, GC totals, allocation rate, and the age of the last
// sample. A sample older than three sampling intervals (and at least a
// second) is flagged STALE — the sampler goroutine has stopped ticking,
// so the gauges are frozen, not calm.
func renderResources(w io.Writer, scalar map[string]float64, nowUnixMs int64) {
	if scalar["sysmon.samples_total"] <= 0 {
		return
	}
	fmt.Fprintf(w, "resources  heap %s/%s  rss %s  goroutines %.0f  gc %.0f (%.2f ms)  alloc %s/s",
		mb(scalar["go.heap_alloc_bytes"]), mb(scalar["go.heap_inuse_bytes"]),
		mb(scalar["proc.rss_bytes"]),
		scalar["go.goroutines"],
		scalar["go.gc_cycles_total"], scalar["go.gc_pause_ms_total"],
		mb(scalar["go.alloc_bytes_per_s"]))
	if last := scalar["sysmon.last_sample_unix_ms"]; last > 0 {
		ageMs := float64(nowUnixMs) - last
		if ageMs < 0 {
			ageMs = 0
		}
		fmt.Fprintf(w, "  sampled %.1fs ago", ageMs/1000)
		if interval := scalar["sysmon.interval_ms"]; interval > 0 && ageMs > 3*interval && ageMs > 1000 {
			fmt.Fprint(w, "  STALE (sampler wedged?)")
		}
	}
	fmt.Fprintln(w)
}

// mb renders a byte quantity as mebibytes with one decimal.
func mb(v float64) string {
	return strconv.FormatFloat(v/(1024*1024), 'f', 1, 64) + " MB"
}

func quantStr(v float64) string {
	if v != v || v > 1e18 { // NaN or +Inf upper bound: beyond the last bucket
		return ">10000"
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}
