package cliutil

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
	"taccc/internal/obs/sysmon"
)

// parseObs registers a session on a fresh "tactest" flag set, parses
// args into it and closes it when the test ends.
func parseObs(t *testing.T, withSLO bool, args ...string) *Obs {
	t.Helper()
	fs := flag.NewFlagSet("tactest", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int64("seed", 1, "random seed")
	o := NewObs(fs, "test events", withSLO)
	t.Cleanup(o.Close)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// startObs parses args and starts the session, returning what it wrote
// to stdout and stderr.
func startObs(t *testing.T, withSLO bool, args ...string) (*Obs, *bytes.Buffer) {
	t.Helper()
	o := parseObs(t, withSLO, args...)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := o.Start(1, &out, &out); err != nil {
		t.Fatal(err)
	}
	return o, &out
}

func TestSysmonFlags(t *testing.T) {
	o := parseObs(t, false)
	if o.sysmonOn || o.sysmonInterval != sysmon.DefaultInterval {
		t.Fatalf("defaults: sysmon=%v interval=%v", o.sysmonOn, o.sysmonInterval)
	}
	if o.fs.Lookup("slo") != nil || o.fs.Lookup("slo-window") != nil {
		t.Fatal("-slo registered on a tool without SLOs")
	}
	o = parseObs(t, false, "-sysmon", "-sysmon-interval", "10ms")
	if !o.sysmonOn || o.sysmonInterval != 10*time.Millisecond {
		t.Fatalf("parsed: sysmon=%v interval=%v", o.sysmonOn, o.sysmonInterval)
	}
}

func TestSLOFlagsDefaults(t *testing.T) {
	o := parseObs(t, true)
	if o.sloSpec != "" || o.sloWindowSec != 1 {
		t.Fatalf("defaults: slo=%q window=%v, want \"\" and 1s", o.sloSpec, o.sloWindowSec)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
}

// validateCase is one row of the Validate error table: want is an error
// substring, "" for a valid flag set.
type validateCase struct {
	args []string
	want string
}

func checkValidate(t *testing.T, withSLO bool, cases []validateCase) {
	t.Helper()
	for _, tc := range cases {
		err := parseObs(t, withSLO, tc.args...).Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("args %v: unexpected error %v", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

// TestSysmonValidate pins the usage-error contract: a non-positive
// interval is rejected up front instead of wedging the sampler, even with
// sampling off so the typo is not swallowed.
func TestSysmonValidate(t *testing.T) {
	checkValidate(t, false, []validateCase{
		{[]string{"-sysmon", "-sysmon-interval", "1ms"}, ""},
		{[]string{"-sysmon", "-sysmon-interval", "1s"}, ""},
		{[]string{"-sysmon", "-sysmon-interval", "0s"}, "-sysmon-interval must be positive"},
		{[]string{"-sysmon", "-sysmon-interval", "-1s"}, "-sysmon-interval must be positive"},
		{[]string{"-sysmon-interval", "-1s"}, "-sysmon-interval must be positive"},
	})
}

func TestSLOValidate(t *testing.T) {
	checkValidate(t, true, []validateCase{
		{[]string{"-slo", "p95<=20"}, ""},
		{[]string{"-slo", "p95<=20@99.9,uplink.mean<=5,miss<=0.01"}, ""},
		{[]string{"-slo", "p95<=20", "-slo-window", "0.25"}, ""},
		{[]string{"-slo-window", "0"}, "-slo-window must be positive"},
		{[]string{"-slo", "p95<=20", "-slo-window", "0"}, "-slo-window must be positive"},
		{[]string{"-slo", "p95<=20", "-slo-window", "-2"}, "-slo-window must be positive"},
		{[]string{"-slo", "p95>=20"}, "want [series.]stat<=threshold"},
		{[]string{"-slo", "p200<=20"}, "unknown stat"},
		{[]string{"-slo", "p95<=20@0"}, "target"},
	})
}

// TestObsAllPlanesOff: with no observability flag given, a full session
// opens no file, builds no registry, sampler or tracker, and every handle
// is nil, so the tools' uninstrumented path stays the nil fast path.
func TestObsAllPlanesOff(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	o, out := startObs(t, true)
	if o.Root() != nil || o.Sink() != nil || o.Registry() != nil || o.SLO() != nil || o.Progress(false) != nil {
		t.Fatal("a plane is on with every flag unset")
	}
	if o.archive != nil || o.events != nil || o.sampler != nil || o.Serving() {
		t.Fatalf("off session holds live state: %+v", o)
	}
	o.PrintSLO()
	if err := o.Finish(runlog.Summary{"x": 1}); err != nil {
		t.Fatal(err)
	}
	o.Close()
	if out.Len() != 0 {
		t.Fatalf("off session wrote output: %q", out.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("off session created files: %v", entries)
	}
}

// TestProfilesDisabledIsNoop: with no -cpuprofile or -memprofile, Start
// and a repeated Close report nothing, and Close is safe before Start.
func TestProfilesDisabledIsNoop(t *testing.T) {
	parseObs(t, false).Close()
	o := parseObs(t, false)
	var errw bytes.Buffer
	if err := o.Start(1, io.Discard, &errw); err != nil {
		t.Fatal(err)
	}
	o.Close()
	o.Close()
	if errw.Len() != 0 {
		t.Fatalf("no-op profiles wrote errors: %s", errw.String())
	}
}

// TestTelemetryDisabledIsNoOp: without -listen no server starts and
// nothing is announced, even when the registry is on for -metrics-out.
func TestTelemetryDisabledIsNoOp(t *testing.T) {
	o := parseObs(t, false, "-metrics-out", filepath.Join(t.TempDir(), "m.json"))
	var errw bytes.Buffer
	if err := o.Start(1, io.Discard, &errw); err != nil {
		t.Fatal(err)
	}
	if o.Serving() || o.srv != nil {
		t.Fatal("no -listen should mean disabled")
	}
	if o.Registry() == nil {
		t.Fatal("-metrics-out must still build a registry")
	}
	if err := o.Finish(nil); err != nil {
		t.Fatal(err)
	}
	o.Close()
	if errw.Len() != 0 {
		t.Fatalf("disabled telemetry announced itself: %q", errw.String())
	}
}

// TestSysmonNilAndOffSafe: without -sysmon the session holds no sampler,
// collector or registry, Finish and Close go through the nil sampler, and
// neither the archive nor the trace gains resource data.
func TestSysmonNilAndOffSafe(t *testing.T) {
	parseObs(t, false).Close()
	tmp := t.TempDir()
	dir := filepath.Join(tmp, "run")
	tracePath := filepath.Join(tmp, "trace.json")
	o, _ := startObs(t, false, "-trace-out", tracePath, "-archive", dir)
	if o.sampler != nil || o.counters != nil || len(o.Registry().Snapshot().Gauges) != 0 {
		t.Fatal("off sysmon produced a sampler, collector or resource gauges")
	}
	if err := o.Finish(runlog.Summary{}); err != nil {
		t.Fatal(err)
	}
	o.Close()
	if _, err := os.Stat(filepath.Join(dir, runlog.ResourcesFile)); !os.IsNotExist(err) {
		t.Fatalf("off sysmon left %s in the archive: %v", runlog.ResourcesFile, err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "C" {
			t.Fatalf("off sysmon wrote a counter track: %+v", ev)
		}
	}
}

// TestSLONilAndOffSafe: without -slo the tracker and its registry are
// nil, the nil tracker absorbs observations, PrintSLO prints nothing and
// neither the archive nor -listen carries SLO data.
func TestSLONilAndOffSafe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	o, stdout := startObs(t, true, "-archive", dir, "-listen", "127.0.0.1:0")
	tr := o.SLO()
	if tr != nil {
		t.Fatal("off SLO produced a tracker")
	}
	tr.Observe(100, 500, false)
	tr.Finish(500)
	if tr.Results() != nil {
		t.Fatal("nil tracker returned results")
	}
	o.PrintSLO()
	if strings.Contains(stdout.String(), "slo:") {
		t.Fatalf("off SLO printed a summary:\n%s", stdout.String())
	}
	if body := scrape(t, o, "/metrics"); strings.Contains(body, "slo_") {
		t.Fatalf("off SLO served gauges:\n%s", body)
	}
	if err := o.Finish(runlog.Summary{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, runlog.SLOFile)); !os.IsNotExist(err) {
		t.Fatalf("off SLO left %s in the archive: %v", runlog.SLOFile, err)
	}
}

// TestLivePlanesAloneBuildNoRegistry: -sysmon and -slo without
// -listen, -archive or -metrics-out start their planes but build no
// registry, since nothing would read one.
func TestLivePlanesAloneBuildNoRegistry(t *testing.T) {
	o, _ := startObs(t, true, "-sysmon", "-slo", "p95<=20")
	if o.sampler == nil || o.SLO() == nil {
		t.Fatal("-sysmon and -slo must start their planes")
	}
	if o.Registry() != nil {
		t.Fatal("a registry was built that nothing reads")
	}
}

// TestObsArchiveStreamsFollowPlanes: the archive gains a stream file for
// exactly the planes that are on.
func TestObsArchiveStreamsFollowPlanes(t *testing.T) {
	base := []string{runlog.EventsFile, runlog.ManifestFile, runlog.MetricsFile, runlog.SummaryFile}
	cases := []struct {
		args  []string
		extra []string
	}{
		{nil, nil},
		{[]string{"-sysmon"}, []string{runlog.ResourcesFile}},
		{[]string{"-slo", "p95<=20"}, []string{runlog.SLOFile}},
		{[]string{"-trace-out", "t.json"}, []string{runlog.TraceFile}},
		{[]string{"-sysmon", "-slo", "p95<=20", "-trace-out", "t.json"}, []string{runlog.ResourcesFile, runlog.SLOFile, runlog.TraceFile}},
	}
	for _, tc := range cases {
		tmp := t.TempDir()
		dir := filepath.Join(tmp, "run")
		var args []string
		for _, a := range tc.args {
			if a == "t.json" {
				a = filepath.Join(tmp, a)
			}
			args = append(args, a)
		}
		o, _ := startObs(t, true, append(args, "-archive", dir)...)
		if err := o.Finish(runlog.Summary{}); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		want := append(append([]string(nil), base...), tc.extra...)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("args %v: archive holds %v, want %v", tc.args, got, want)
		}
	}
}

// TestSysmonStartWithArchive: the sampler's final sample and the root
// span reach resources.jsonl and trace.jsonl before Finish seals the
// archive, and the sysmon registry never leaks into metrics.json.
func TestSysmonStartWithArchive(t *testing.T) {
	tmp := t.TempDir()
	dir := filepath.Join(tmp, "run")
	// An hour-long interval leaves exactly two samples: the one Start
	// takes and the final one Finish takes.
	o, stdout := startObs(t, false, "-sysmon", "-sysmon-interval", "1h",
		"-trace-out", filepath.Join(tmp, "trace.json"), "-archive", dir)
	o.Registry().Counter("cluster.requests_ok").Add(1)
	if err := o.Finish(runlog.Summary{"ok": 1}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace:      chrome trace -> ", "archive:    run archive -> " + dir} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout %q lacks %q", stdout.String(), want)
		}
	}
	arch, err := runlog.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sysmon.SamplesFromEvents(arch.Resources)); n != 2 {
		t.Fatalf("archive has %d resource samples, want the start and final ones", n)
	}
	root := false
	for _, sp := range obs.SpansFromEvents(arch.Trace) {
		root = root || sp.Name == "tactest"
	}
	if !root {
		t.Fatalf("root span missing from trace.jsonl: %v", arch.Trace)
	}
	for name := range arch.Metrics.Counters {
		if strings.HasPrefix(name, "sysmon.") {
			t.Fatalf("sysmon counter %s leaked into the archived metrics snapshot", name)
		}
	}
	for name := range arch.Metrics.Gauges {
		if strings.HasPrefix(name, "go.") || strings.HasPrefix(name, "proc.") {
			t.Fatalf("sysmon gauge %s leaked into the archived metrics snapshot", name)
		}
	}
}

// TestSysmonStartWithoutArchive: with archiving off the samples still
// become counter tracks in the Chrome trace, and the sampler's registry
// is served on -listen.
func TestSysmonStartWithoutArchive(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	o, _ := startObs(t, false, "-sysmon", "-sysmon-interval", "1ms", "-trace-out", tracePath, "-listen", "127.0.0.1:0")
	if body := scrape(t, o, "/metrics"); !strings.Contains(body, "sysmon_samples_total") {
		t.Fatalf("sysmon registry not served:\n%s", body)
	}
	if err := o.Finish(nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	counters := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "C" {
			counters++
		}
	}
	if counters == 0 {
		t.Fatal("trace export has no counter tracks")
	}
}

func TestSLOStartWithArchive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	o, stdout := startObs(t, true, "-slo", "p95<=20@90", "-slo-window", "0.5", "-archive", dir)
	tr := o.SLO()
	if tr == nil || tr.WindowMs() != 500 {
		t.Fatalf("tracker %v, want a 500 ms window", tr)
	}
	// Drive one violating window through the tracker and seal the archive.
	tr.Observe(100, 500, false)
	tr.Finish(500)
	o.PrintSLO()
	if !strings.Contains(stdout.String(), "e2e_p95") || !strings.Contains(stdout.String(), "VIOLATED") {
		t.Fatalf("summary wrong:\n%s", stdout.String())
	}
	if err := o.Finish(runlog.Summary{}); err != nil {
		t.Fatal(err)
	}
	ar, err := runlog.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.SLO) == 0 {
		t.Fatal("archive has no SLO events")
	}
	// SLO gauges are live-only: the archived snapshot leaves them out, so
	// it stays identical with the plane off.
	for name := range ar.Metrics.Gauges {
		if strings.HasPrefix(name, "slo.") {
			t.Fatalf("slo gauge %s leaked into the archived metrics snapshot", name)
		}
	}
}

func TestSLOStartWithoutArchive(t *testing.T) {
	o, _ := startObs(t, true, "-slo", "p95<=20", "-listen", "127.0.0.1:0")
	tr := o.SLO()
	if tr == nil {
		t.Fatal("tracker must exist without an archive (gauges still serve -listen)")
	}
	tr.Observe(10, 5, false)
	tr.Finish(1000)
	if body := scrape(t, o, "/metrics"); !strings.Contains(body, "slo_") {
		t.Fatalf("slo gauges not served:\n%s", body)
	}
}

func TestTelemetryServesMetrics(t *testing.T) {
	o, _ := startObs(t, false, "-listen", "127.0.0.1:0")
	if !o.Serving() || o.Registry() == nil {
		t.Fatal("-listen must serve a run registry")
	}
	o.Registry().Counter("cluster.requests.sent").Add(42)
	if body := scrape(t, o, "/metrics"); !strings.Contains(body, "cluster_requests_sent 42") {
		t.Fatalf("metrics not served: %q", body)
	}
	addr := o.srv.Addr()
	o.Close()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("telemetry server still up after Close")
	}
}

func scrape(t *testing.T, o *Obs, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + o.srv.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestProfilesLifecycle(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	o := parseObs(t, false, "-cpuprofile", cpu, "-memprofile", mem)
	var errw bytes.Buffer
	if err := o.Start(1, io.Discard, &errw); err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to write.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	o.Close()
	if errw.Len() != 0 {
		t.Fatalf("Close reported errors: %s", errw.String())
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
}

func TestProfilesBadPath(t *testing.T) {
	o := parseObs(t, false, "-cpuprofile", filepath.Join(t.TempDir(), "missing-dir", "cpu.pprof"))
	if err := o.Start(1, io.Discard, io.Discard); err == nil {
		t.Fatal("unwritable CPU profile path should fail Start")
	}
}

// TestObsFinishSurfacesWriteErrors: an -events stream or -metrics-out
// file that did not reach disk fails Finish, naming the output.
func TestObsFinishSurfacesWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	for _, tc := range []struct{ flag, want string }{
		{"-events", "events: "},
		{"-metrics-out", "metrics: "},
	} {
		o, _ := startObs(t, false, tc.flag, "/dev/full")
		obs.Emit(o.Sink(), "iter", map[string]interface{}{"iter": 1})
		o.Registry().Counter("c").Inc()
		err := o.Finish(runlog.Summary{})
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s /dev/full: Finish() = %v, want a %q error", tc.flag, err, tc.want)
		}
	}
}

// TestObsProgressChain: the progress chain feeds the event sink and the
// registry, and prints to stderr only when asked.
func TestObsProgressChain(t *testing.T) {
	events := filepath.Join(t.TempDir(), "ev.jsonl")
	o := parseObs(t, false, "-events", events, "-metrics-out", filepath.Join(t.TempDir(), "m.json"))
	var stderr bytes.Buffer
	if err := o.Start(1, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	o.Progress(false).OnIter(obs.IterEvent{Algo: "tabu", Iter: 0, BestCost: 3, Feasible: true})
	if stderr.Len() != 0 {
		t.Fatalf("quiet chain printed %q", stderr.String())
	}
	o.Progress(true).OnIter(obs.IterEvent{Algo: "tabu", Iter: 1, BestCost: 2, Feasible: true})
	if !strings.Contains(stderr.String(), "tabu iter 1: best 2.000 ms") {
		t.Fatalf("stderr chain printed %q", stderr.String())
	}
	if err := o.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if n := o.Registry().Snapshot().Counters["solver.tabu.iters"]; n != 2 {
		t.Fatalf("registry counted %d iterations, want 2", n)
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("events file holds %d lines, want 2: %q", len(lines), data)
	}
	var ev map[string]interface{}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil || ev["kind"] != "iter" {
		t.Fatalf("bad iter event %q: %v", lines[1], err)
	}
}
