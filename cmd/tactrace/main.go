// Command tactrace analyzes the per-request records of a run archive
// (tacsim -archive), rebuilt from the request spans in its event stream.
// Output: aggregate summary, per-edge breakdown, and a latency-over-time
// series. -chrome instead validates a Chrome trace-event JSON export
// (tacsolve/tacbench/tacsim -trace-out) with the strict decoder — the CI
// trace-smoke gate.
//
// Usage:
//
//	tacsim -iot 100 -edge 10 -archive runs/a
//	tactrace -in runs/a
//	tactrace -in runs/a -window 5000
//	tactrace -chrome trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	taccc "taccc"
	"taccc/internal/cliutil"
	"taccc/internal/obs"
	"taccc/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tactrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in     = fs.String("in", "", "run-archive directory (required unless -chrome)")
		window = fs.Float64("window", 10_000, "time-series bucket width in ms (must be > 0)")
		chrome = fs.String("chrome", "", "validate a Chrome trace-event JSON export (from -trace-out) and exit")
	)
	version := cliutil.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		cliutil.FprintVersion(stdout, "tactrace")
		return 0
	}
	if *chrome != "" {
		return validateChrome(*chrome, stdout, stderr)
	}
	if *in == "" {
		fmt.Fprintln(stderr, "tactrace: -in is required")
		return 2
	}
	if *window <= 0 {
		fmt.Fprintf(stderr, "tactrace: -window must be > 0, got %g\n", *window)
		return 2
	}
	st, err := os.Stat(*in)
	if err != nil {
		fmt.Fprintf(stderr, "tactrace: %v\n", err)
		return 1
	}
	if !st.IsDir() {
		fmt.Fprintf(stderr, "tactrace: -in takes a run-archive directory (tacsim -archive); %s is not a directory\n", *in)
		return 2
	}
	records, err := loadRecords(*in)
	if err != nil {
		fmt.Fprintf(stderr, "tactrace: %v\n", err)
		return 1
	}

	sum := taccc.SummarizeTrace(records)
	fmt.Fprintf(stdout, "records:    %d (%d completed, %d missed deadline, %d dropped)\n",
		len(records), sum.Completed, sum.Missed, sum.Dropped)
	if sum.Completed > 0 {
		fmt.Fprintf(stdout, "latency:    mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms\n",
			sum.Latency.Mean(), sum.Latency.Median(), sum.Latency.P95(), sum.Latency.P99())
		fmt.Fprintf(stdout, "miss rate:  %.2f%%\n", 100*sum.MissRate())
	}

	if len(sum.PerEdge) > 0 {
		edges := make([]int, 0, len(sum.PerEdge))
		for e := range sum.PerEdge {
			edges = append(edges, e)
		}
		sort.Ints(edges)
		fmt.Fprintln(stdout, "\nper-edge completions:")
		for _, e := range edges {
			fmt.Fprintf(stdout, "  edge-%d: %d\n", e, sum.PerEdge[e])
		}
	}

	series, err := taccc.TraceTimeSeries(records, *window)
	if err != nil {
		fmt.Fprintf(stderr, "tactrace: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\ntime series (%.0f ms windows):\n", *window)
	fmt.Fprintln(stdout, "start_ms  completed  dropped  mean_ms  p95_ms")
	for _, w := range series {
		fmt.Fprintf(stdout, "%8.0f  %9d  %7d  %7.2f  %7.2f\n",
			w.StartMs, w.Completed, w.Dropped, w.MeanLatencyMs, w.P95Ms)
	}
	return 0
}

// loadRecords reads the request records of the run archive in dir, via
// the same loader tacreport uses, from its event stream's request spans.
func loadRecords(dir string) ([]taccc.RequestRecord, error) {
	src, err := report.LoadSource(dir)
	if err != nil {
		return nil, err
	}
	records, err := taccc.TraceFromSpanEvents(src.Archive.Events)
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%s: archive carries no request spans (run tacsim with -archive to record them)", dir)
	}
	return records, nil
}

// validateChrome strictly decodes a Chrome trace-event export and
// reports what it holds; any structural violation fails the run.
func validateChrome(path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "tactrace: %v\n", err)
		return 1
	}
	defer f.Close()
	ct, err := obs.ReadChromeTrace(f)
	if err != nil {
		fmt.Fprintf(stderr, "tactrace: %s: %v\n", path, err)
		return 1
	}
	spans, meta, counters := 0, 0, 0
	threads := map[int]bool{}
	counterTracks := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			threads[ev.Tid] = true
		case "M":
			meta++
		case "C":
			counters++
			counterTracks[ev.Name] = true
		}
	}
	fmt.Fprintf(stdout, "chrome trace %s: valid (%d spans on %d threads, %d metadata events)\n",
		path, spans, len(threads), meta)
	if counters > 0 {
		fmt.Fprintf(stdout, "chrome trace %s: %d counter events on %d tracks\n",
			path, counters, len(counterTracks))
	}
	return 0
}
