// Command tacsim builds a deployment scenario, solves the assignment with
// a chosen algorithm, and replays the workload through the edge-cluster
// discrete-event simulator, reporting end-to-end latency and deadline
// behaviour.
//
// Usage:
//
//	tacsim -iot 100 -edge 10 -algo qlearning -duration 60
//	tacsim -iot 100 -edge 10 -algo greedy -fail-edge 0 -fail-at 20
//	tacsim -listen :9477 -linger 30s        # scrape /metrics while it runs
//	tacsim -events run.jsonl -trace-sample 0.1
//	tacsim -archive runs/a                  # self-contained run archive
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	taccc "taccc"
	"taccc/internal/cliutil"
	"taccc/internal/obs/runlog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tacsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		iot         = fs.Int("iot", 100, "number of IoT devices")
		edge        = fs.Int("edge", 10, "number of edge servers")
		family      = fs.String("family", "hierarchical", "topology family")
		algo        = fs.String("algo", "qlearning", "assignment algorithm")
		rho         = fs.Float64("rho", 0.7, "capacity tightness in (0,1]; 0 means the default 0.7")
		payload     = fs.Float64("payload", 4, "request payload KB (payload-aware delays)")
		duration    = fs.Float64("duration", 60, "simulated seconds")
		warmup      = fs.Float64("warmup", 5, "warmup seconds excluded from stats")
		failEdge    = fs.Int("fail-edge", -1, "edge index to fail mid-run (-1 = none)")
		failAt      = fs.Float64("fail-at", 30, "failure time in seconds")
		discipline  = fs.String("discipline", "fifo", "edge queueing: fifo | ps")
		maxQueue    = fs.Int("max-queue", 0, "per-edge queue cap (0 = unlimited)")
		jitter      = fs.Float64("jitter", 0, "lognormal network jitter sigma (0 = deterministic delays)")
		seed        = fs.Int64("seed", 1, "random seed")
		workers     = fs.Int("workers", 0, "parallelism for delay-matrix construction (<= 0 = all cores, 1 = sequential); output is identical at any setting")
		progress    = fs.Bool("progress", false, "print solver improvements to stderr while assigning")
		traceSample = fs.Float64("trace-sample", 0, "fraction of requests emitted as spans with -events/-archive, in [0,1] (0 = all)")
		linger      = fs.Duration("linger", 0, "keep the -listen telemetry server up this long after the run finishes")
	)
	version := cliutil.VersionFlag(fs)
	session := cliutil.NewObs(fs, "solver iteration and per-request span events", true)
	defer session.Close()
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		cliutil.FprintVersion(stdout, "tacsim")
		return 0
	}
	if err := session.Validate(); err != nil {
		fmt.Fprintf(stderr, "tacsim: %v\n", err)
		return 2
	}
	a, err := taccc.NewAlgorithmRegistry().New(*algo, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "tacsim: %v\n", err)
		return 2
	}
	if !(*rho >= 0 && *rho <= 1) {
		fmt.Fprintf(stderr, "tacsim: -rho %v must be in (0,1], or 0 for the default\n", *rho)
		return 2
	}
	disc := taccc.DisciplineFIFO
	switch *discipline {
	case "fifo":
	case "ps":
		disc = taccc.DisciplinePS
	default:
		fmt.Fprintf(stderr, "tacsim: unknown discipline %q\n", *discipline)
		return 2
	}
	if err := session.Start(*seed, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "tacsim: %v\n", err)
		return 1
	}
	traceRoot := session.Root()
	built, err := taccc.Scenario{
		Family: taccc.Family(*family),
		NumIoT: *iot, NumEdge: *edge, Rho: *rho, PayloadKB: *payload, Seed: *seed,
		Workers: *workers, Trace: traceRoot,
	}.Build()
	if err != nil {
		fmt.Fprintf(stderr, "tacsim: %v\n", err)
		return 1
	}
	if sink := session.Progress(*progress); sink != nil {
		taccc.WithProgress(a, sink)
	}
	solvePh := traceRoot.Child("solve")
	solvePh.SetAttr("algo", *algo)
	taccc.WithPhases(a, solvePh)
	got, err := a.Assign(built.Instance)
	solvePh.End()
	if err != nil {
		fmt.Fprintf(stderr, "tacsim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "assignment: algo=%s mean-delay=%.3fms max-delay=%.3fms imbalance=%.2f\n",
		*algo, built.Instance.MeanCost(got), built.Instance.MaxCost(got), built.Instance.Imbalance(got))

	downPh := traceRoot.Child("downlink-matrix")
	down := taccc.NewDelayMatrixWorkers(built.Graph, taccc.LatencyCost, *workers)
	downPh.End()
	cfg := taccc.SimConfig{
		UplinkMs:        built.Delay.DelayMs,
		DownlinkMs:      down.DelayMs,
		Devices:         built.Devices,
		ServiceRate:     taccc.ServiceRates(built.Capacity, 0.7),
		Assignment:      got.Of,
		WarmupMs:        *warmup * 1000,
		Discipline:      disc,
		MaxQueue:        *maxQueue,
		Metrics:         session.Registry(),
		SLO:             session.SLO(),
		JitterSigma:     *jitter,
		Seed:            *seed,
		TraceSampleRate: *traceSample,
	}
	if eventSink := session.Sink(); eventSink != nil {
		cfg.Spans = eventSink
	}
	sim, err := taccc.NewSimulator(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "tacsim: %v\n", err)
		return 1
	}
	if *failEdge >= 0 {
		if err := sim.ScheduleEdgeFailure(*failAt*1000, *failEdge); err != nil {
			fmt.Fprintf(stderr, "tacsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "injecting failure of edge %d at t=%.0fs\n", *failEdge, *failAt)
	}
	simPh := traceRoot.Child("simulate")
	simPh.SetAttr("duration_s", *duration)
	res, err := sim.Run(*duration * 1000)
	simPh.End()
	if err != nil {
		fmt.Fprintf(stderr, "tacsim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "completed:  %d requests (%d dropped)\n", res.Completed, res.Dropped)
	fmt.Fprintf(stdout, "latency:    p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		res.Latency.Median(), res.Latency.P95(), res.Latency.P99(), res.Latency.Quantile(1))
	fmt.Fprintf(stdout, "deadlines:  %d missed (%.2f%%)\n", res.DeadlineMisses, 100*res.MissRate())
	session.PrintSLO()
	fmt.Fprint(stdout, "edge util: ")
	for _, u := range res.Utilization() {
		fmt.Fprintf(stdout, " %.2f", u)
	}
	fmt.Fprintln(stdout)
	summary := runlog.Summary{
		"assignment.mean_delay_ms": built.Instance.MeanCost(got),
		"assignment.max_delay_ms":  built.Instance.MaxCost(got),
		"assignment.imbalance":     built.Instance.Imbalance(got),
		"sim.completed":            float64(res.Completed),
		"sim.dropped":              float64(res.Dropped),
		"sim.deadline_misses":      float64(res.DeadlineMisses),
		"sim.miss_rate":            res.MissRate(),
		"sim.latency_p50_ms":       res.Latency.Median(),
		"sim.latency_p95_ms":       res.Latency.P95(),
		"sim.latency_p99_ms":       res.Latency.P99(),
		"sim.latency_max_ms":       res.Latency.Quantile(1),
	}
	// The sampler keeps refreshing its registry through the -linger
	// window below, so tactop's staleness age stays honest.
	if err := session.Finish(summary); err != nil {
		fmt.Fprintf(stderr, "tacsim: %v\n", err)
		return 1
	}
	if path := session.MetricsOut(); path != "" {
		fmt.Fprintf(stdout, "metrics:    registry snapshot -> %s\n", path)
	}
	if session.Serving() && *linger > 0 {
		fmt.Fprintf(stderr, "telemetry: lingering %s for scrapes\n", *linger)
		time.Sleep(*linger)
	}
	return 0
}
