// Command perfbench is the repository benchmark. It runs the paper's
// pipeline — topology, shortest-path delay matrix, GAP instance,
// assignment and, on one workload, the cluster simulation — through the
// public taccc facade, times every layer call from outside, checks each
// answer, cross-checks it against the shipped tacsolve/tacsim binary run
// on the same instance, and prints one JSON result line.
//
// run.sh builds the binaries and this driver, then runs it:
//
//	bash perfbench/run.sh --workload rl-solve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off; with --trace 1 each iteration adds a traced pass and the
// result carries the per-layer metrics. Exit status is 0 only when every
// check passed; a failed check or a usage error exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec names one reported metric and its unit. The lists mirror
// BENCHMARK.json.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"wall_s", "s"},
	{"cli_wall_s", "s"},
	{"alloc_mb", "MB"},
	{"mean_delay_ms", "sim_ms"},
}

var perLayer = []metricSpec{
	{"topology.generate_ms", "ms"},
	{"topology.delay_matrix_ms", "ms"},
	{"topology.delay_matrix_w1_ms", "ms"},
	{"par.delay_matrix_speedup", "ratio"},
	{"topology.downlink_matrix_ms", "ms"},
	{"topology.nodes", "count"},
	{"topology.links", "count"},
	{"topology.dijkstra_runs", "count"},
	{"workload.generate_ms", "ms"},
	{"gap.instance_ms", "ms"},
	{"gap.matrix_bytes", "bytes"},
	{"gap.lower_bound_ms", "ms"},
	{"gap.evaluate_ms", "ms"},
	{"gap_pct", "%"},
	{"assign.solve_ms", "ms"},
	{"assign.alloc_mb", "MB"},
	{"assign.iterations", "count"},
	{"assign.improvements", "count"},
	{"assign.improve_ratio", "ratio"},
	{"assign.ns_per_iter", "ns"},
	{"assign.phase.construction_ms", "ms"},
	{"assign.phase.improvement_ms", "ms"},
	{"cluster.new_ms", "ms"},
	{"cluster.run_off_ms", "ms"},
	{"cluster.run_ms", "ms"},
	{"cluster.requests", "count"},
	{"cluster.ns_per_request", "ns"},
	{"obs.metrics_overhead_pct", "%"},
	{"obs.slo_overhead_pct", "%"},
	{"obs.spans_overhead_pct", "%"},
	{"obs.planes_overhead_pct", "%"},
	{"obs.spans_emitted", "count"},
	{"obs.slo_windows", "count"},
	{"cli.overhead_ms", "ms"},
	{"cli_max_rss_mb", "MB"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"share.topology_pct", "%"},
	{"share.workload_pct", "%"},
	{"share.gap_pct", "%"},
	{"share.assign_pct", "%"},
	{"share.cluster_pct", "%"},
	{"sim_req_per_s", "1/s"},
	{"sim_p99_ms", "sim_ms"},
	{"sim_miss_rate", "ratio"},
	{"failed_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: rl-solve, wide-greedy or sim-observed")
		seed    = fs.Int64("seed", 1, "workload seed; instance 0 of the run uses it as is")
		seconds = fs.Float64("seconds", 30, "keep iterating until this many seconds have passed (at least one pass over the instances)")
		trace   = fs.Int("trace", 0, "0 reports end-to-end metrics, 1 adds traced passes and reports per-layer metrics")
		binDir  = fs.String("bin", "", "directory holding the tacsolve and tacsim binaries")
		tmpDir  = fs.String("tmp", "", "scratch directory for the CLI runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *binDir == "" || *tmpDir == "" || !(*seconds >= 0) {
		fmt.Fprintln(stderr, "perfbench: -bin, -tmp and -seconds >= 0 are required")
		return 2
	}
	b := &bench{
		w:       w,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		// Delay-matrix parallelism, passed to the CLIs as -workers.
		workers: runtime.NumCPU(),
		binDir:  *binDir,
		tmpDir:  *tmpDir,
		log:     stderr,
	}
	o := b.run()
	res, err := report(o, b.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report turns the collected samples into the result line: timings and
// other per-iteration figures are medians, counts come from the run's
// first instance, and the quality figures pool the run's distinct
// instances.
func report(o *outcome, trace bool) (*result, error) {
	res := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue),
	}
	if o.attempted == 0 {
		return nil, fmt.Errorf("no iteration was attempted")
	}
	if o.failed > 0 && o.failed == o.attempted {
		return res, nil
	}
	derived := map[string]float64{"failed_frac": float64(o.failed) / float64(o.attempted)}
	if o.instances > 0 {
		derived["mean_delay_ms"] = o.sumMean / float64(o.instances)
		derived["gap_pct"] = 100 * (o.sumTotal - o.sumLB) / o.sumLB
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := derived[m.name]
		if vs := o.samples[m.name]; !ok && len(vs) == 0 {
			return nil, fmt.Errorf("metric %s has no sample", m.name)
		} else if !ok && (m.unit == "count" || m.unit == "bytes") {
			v = vs[0]
		} else if !ok {
			v = median(vs)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
