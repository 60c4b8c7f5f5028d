package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"taccc/internal/obs"
	"taccc/internal/obs/httpserv"
	"taccc/internal/obs/runlog"
	"taccc/internal/obs/slo"
	"taccc/internal/obs/sysmon"
)

// executionOnlyFlags are flags that never change a run's results — they
// tune parallelism, profiling, telemetry or pick output destinations.
// They are excluded from the archived config so that archives of the
// same logical run are identical regardless of how it was executed:
// `-workers 1` and `-workers 8` runs of the same seed and scenario
// produce byte-identical archives (the manifest's wall-clock fields
// aside), which is what makes run-diffing trustworthy.
var executionOnlyFlags = map[string]bool{
	"archive":         true,
	"cpuprofile":      true,
	"memprofile":      true,
	"events":          true,
	"linger":          true,
	"listen":          true,
	"metrics-out":     true,
	"o":               true,
	"outdir":          true,
	"progress":        true,
	"slo":             true,
	"slo-window":      true,
	"sysmon":          true,
	"sysmon-interval": true,
	"trace":           true,
	"trace-out":       true,
	"workers":         true,
	"json":            true,
	"csv":             true,
	"md":              true,
	"version":         true,
}

// Obs is one CLI run's observability session. It owns the shared flags
// (-events, -archive, -trace-out, -sysmon, -sysmon-interval, -listen,
// -metrics-out, -cpuprofile, -memprofile and, on sim-time tools, -slo and
// -slo-window), validates them before any side effect, starts the planes
// in a fixed order and tears them down in the order the archive needs.
//
// Start order: archive, sysmon, SLO, trace, profiles, events, registry,
// telemetry. The sampler precedes the tracer so every phase, the root
// included, carries resource attributes; the archive precedes both so
// their streams land inside it.
//
// Teardown (Finish): the sampler takes a final sample and detaches from
// the archive and collector sinks, the root phase ends and the Chrome
// trace is written, the -events file is closed, the archive is sealed,
// and -metrics-out is written — every error fails the run. Close, which
// callers defer right after NewObs, stops telemetry, profiles and the
// sampler, and backstops the -events file on early returns.
//
// Every handle is nil when its plane is off, and every consumer is
// nil-safe, so tools thread them through unconditionally.
type Obs struct {
	fs      *flag.FlagSet
	withSLO bool

	eventsPath, archiveDir, traceOut     string
	listen, metricsOut, cpuProf, memProf string
	sysmonOn                             bool
	sysmonInterval                       time.Duration
	sloSpec                              string
	sloWindowSec                         float64

	stdout, stderr io.Writer
	archive        *runlog.Writer
	sampler        *sysmon.Sampler
	counters       *sysmon.Collector
	sysReg, sloReg *obs.Registry
	tracker        *slo.Tracker
	spans          *obs.SpanCollector
	root           *obs.Phase
	stopProfiles   func()
	events         *Events
	sink           obs.Sink
	reg            *obs.Registry
	srv            *httpserv.Server
}

// NewObs registers the session's flags on fs, whose name is the tool
// name. events says what the -events stream carries (e.g. "per-iteration
// solver events"); withSLO adds -slo/-slo-window for tools whose runs
// produce sim-time latencies to judge.
func NewObs(fs *flag.FlagSet, events string, withSLO bool) *Obs {
	o := &Obs{fs: fs, withSLO: withSLO}
	fs.StringVar(&o.eventsPath, "events", "", "stream "+events+" to this JSONL file")
	fs.StringVar(&o.archiveDir, "archive", "", "write a self-contained run archive (manifest, event stream, metrics snapshot, result summary) into this directory")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON pipeline trace to this file (open in Perfetto or chrome://tracing)")
	fs.BoolVar(&o.sysmonOn, "sysmon", false, "sample runtime heap/GC/goroutine/RSS usage while running: go.*/proc.* metrics on -listen, resources.jsonl under -archive, counter tracks in -trace-out, per-phase resource attribution in traced archives")
	fs.DurationVar(&o.sysmonInterval, "sysmon-interval", sysmon.DefaultInterval, "sampling period for -sysmon")
	fs.StringVar(&o.listen, "listen", "", "serve /metrics, /healthz, /snapshot and /debug/pprof on this address (e.g. :9477) while running")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write a metrics-registry snapshot JSON here on exit")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file on exit")
	if withSLO {
		fs.StringVar(&o.sloSpec, "slo", "", "evaluate service-level objectives over rolling sim-time windows; comma-separated [series.]stat<=threshold[@target%] terms, e.g. 'p95<=20@99,miss<=0.01' (series: e2e uplink queue service downlink; stat: pNN mean miss). Emits slo.jsonl under -archive and live slo.* gauges on -listen")
		fs.Float64Var(&o.sloWindowSec, "slo-window", 1, "SLO window width in simulated seconds for -slo")
	}
	return o
}

// Validate checks the parsed flag values; an error is a usage error
// (callers exit 2). A bad -sysmon-interval or -slo-window is rejected
// even with its plane off, so the typo is not silently swallowed.
func (o *Obs) Validate() error {
	if o.sysmonInterval <= 0 {
		return fmt.Errorf("-sysmon-interval must be positive, got %v", o.sysmonInterval)
	}
	if !o.withSLO {
		return nil
	}
	if !(o.sloWindowSec > 0) {
		return fmt.Errorf("-slo-window must be positive, got %v", o.sloWindowSec)
	}
	if o.sloSpec != "" {
		_, err := slo.ParseObjectives(o.sloSpec)
		return err
	}
	return nil
}

// Start brings the requested planes up in the session's start order.
// Call after Validate and after every other usage check, so a usage
// error leaves no archive or trace behind. stdout receives the
// trace/archive announcements, stderr the telemetry address and
// profile problems. On error, the planes already started are stopped by
// the deferred Close.
func (o *Obs) Start(seed int64, stdout, stderr io.Writer) error {
	o.stdout, o.stderr = stdout, stderr
	if o.archiveDir != "" {
		config := make(map[string]string)
		o.fs.VisitAll(func(f *flag.Flag) {
			if !executionOnlyFlags[f.Name] {
				config[f.Name] = f.Value.String()
			}
		})
		w, err := runlog.Create(o.archiveDir, runlog.Manifest{
			Tool: o.fs.Name(), Version: Version(), Seed: seed, Config: config,
		})
		if err != nil {
			return err
		}
		o.archive = w
	}
	var res obs.ResourceSource
	if o.sysmonOn {
		var sinks []obs.Sink
		if o.archive != nil {
			rs, err := o.archive.StartResources()
			if err != nil {
				return err
			}
			sinks = append(sinks, rs)
		}
		if o.traceOut != "" {
			o.counters = &sysmon.Collector{}
			sinks = append(sinks, o.counters)
		}
		o.sysReg = obs.NewRegistry()
		o.sampler = sysmon.New(sysmon.Options{Clock: obs.WallClock(), Registry: o.sysReg, Sink: obs.MultiSink(sinks...)})
		o.sampler.Start(o.sysmonInterval)
		res = o.sampler
	}
	if o.sloSpec != "" {
		objectives, err := slo.ParseObjectives(o.sloSpec)
		if err != nil {
			return err
		}
		var sink obs.Sink
		if o.archive != nil {
			js, err := o.archive.StartSLO()
			if err != nil {
				return err
			}
			sink = js
		}
		o.sloReg = obs.NewRegistry()
		o.tracker, err = slo.New(slo.Config{
			WindowMs: o.sloWindowSec * 1000, Objectives: objectives, Sink: sink, Metrics: o.sloReg,
		})
		if err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		o.spans = &obs.SpanCollector{}
		var sink obs.Sink = o.spans
		if o.archive != nil {
			ts, err := o.archive.StartTrace()
			if err != nil {
				return err
			}
			sink = obs.MultiSink(o.spans, ts)
		}
		tracer := obs.NewTracer(sink, obs.WallClock())
		tracer.SetResources(res)
		o.root = tracer.Root(o.fs.Name())
	}
	if err := o.startProfiles(); err != nil {
		return err
	}
	var sinks []obs.Sink
	if o.eventsPath != "" {
		ev, err := CreateEvents(o.eventsPath)
		if err != nil {
			return err
		}
		o.events = ev
		sinks = append(sinks, ev.Sink())
	}
	if o.archive != nil {
		sinks = append(sinks, o.archive.Sink())
	}
	o.sink = obs.MultiSink(sinks...)
	if o.metricsOut != "" || o.listen != "" || o.archive != nil {
		o.reg = obs.NewRegistry()
	}
	if o.listen != "" {
		// The sysmon and SLO registries are merged in at serve time only,
		// never into the archived snapshot, which must stay identical with
		// those planes on or off.
		srv, err := httpserv.Start(o.listen, o.reg, o.sysReg, o.sloReg)
		if err != nil {
			return err
		}
		o.srv = srv
		fmt.Fprintf(stderr, "telemetry: serving /metrics /healthz /snapshot /debug/pprof on http://%s\n", srv.Addr())
	}
	return nil
}

// startProfiles begins CPU profiling if requested and arms the stop
// function Close runs: it finishes the CPU profile and writes the heap
// profile, reporting problems on stderr rather than failing the run —
// profiles are diagnostics, not outputs.
func (o *Obs) startProfiles() error {
	var stopCPU func() error
	if o.cpuProf != "" {
		var err error
		if stopCPU, err = obs.StartCPUProfile(o.cpuProf); err != nil {
			return err
		}
	}
	o.stopProfiles = func() {
		if stopCPU != nil {
			if err := stopCPU(); err != nil {
				fmt.Fprintf(o.stderr, "cpuprofile: %v\n", err)
			}
		}
		if o.memProf != "" {
			if err := obs.WriteHeapProfile(o.memProf); err != nil {
				fmt.Fprintf(o.stderr, "memprofile: %v\n", err)
			}
		}
	}
	return nil
}

// Root returns the pipeline root phase (nil when -trace-out is off).
func (o *Obs) Root() *obs.Phase { return o.root }

// Sink returns the run's event sink: the -events file and the archive's
// event stream (nil when both are off).
func (o *Obs) Sink() obs.Sink { return o.sink }

// Registry returns the run's semantic metrics registry — the one
// archived as metrics.json and written by -metrics-out (nil unless
// -metrics-out, -listen or -archive was given).
func (o *Obs) Registry() *obs.Registry { return o.reg }

// SLO returns the SLO tracker (nil when -slo is off).
func (o *Obs) SLO() *slo.Tracker { return o.tracker }

// MetricsOut returns the -metrics-out path ("" when not given).
func (o *Obs) MetricsOut() string { return o.metricsOut }

// Serving reports whether the -listen telemetry server is up.
func (o *Obs) Serving() bool { return o.srv != nil }

// Progress returns the solver progress chain: improvements printed to
// stderr when stderrOn, iteration events into Sink, and iteration
// counters into Registry (nil when all three are off).
func (o *Obs) Progress(stderrOn bool) obs.ProgressSink {
	var w obs.ProgressSink
	if stderrOn {
		w = obs.ProgressWriter(o.stderr)
	}
	return obs.MultiProgress(w, obs.EventProgress(o.sink), obs.MetricsProgress(o.reg))
}

// PrintSLO writes the per-objective verdict table to stdout (nothing
// when -slo is off).
func (o *Obs) PrintSLO() {
	if o.tracker == nil {
		return
	}
	for _, r := range o.tracker.Results() {
		verdict := "met"
		if !r.Met {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(o.stdout, "slo:        %-16s %s  compliance %.2f%% (target %.2f%%)  windows %d  violations %d  budget %+.2f  alerts %d  -> %s\n",
			r.Name, r.Objective.Spec(), r.CompliancePct, 100*r.Target,
			r.Windows, r.Violations, r.BudgetRemaining, r.Alerts, verdict)
	}
}

// Finish tears the output planes down in order and seals the archive
// with the run's metrics snapshot and summary. The sampler keeps
// refreshing its registry afterwards, for tacsim -linger. The first
// error is returned; the run must fail rather than ship a truncated
// stream, trace or archive.
func (o *Obs) Finish(summary runlog.Summary) error {
	o.sampler.DetachSink()
	if err := o.writeTrace(); err != nil {
		return err
	}
	if err := o.events.Close(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if o.archive != nil {
		if err := o.archive.Close(o.reg.Snapshot(), summary); err != nil {
			return err
		}
		fmt.Fprintf(o.stdout, "archive:    run archive -> %s\n", o.archiveDir)
	}
	if o.metricsOut == "" {
		return nil
	}
	f, err := os.Create(o.metricsOut)
	if err != nil {
		return err
	}
	err = o.reg.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}

// writeTrace ends the root phase and writes the Chrome trace-event
// export — spans plus any sysmon counter tracks.
func (o *Obs) writeTrace() error {
	if o.root == nil {
		return nil
	}
	o.root.End()
	var counters []obs.CounterSample
	if o.counters != nil {
		counters = sysmon.CounterSamples(o.counters.Samples())
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	err = obs.WriteChromeTrace(f, o.spans.Spans(), counters...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace-out %s: %w", o.traceOut, err)
	}
	fmt.Fprintf(o.stdout, "trace:      chrome trace -> %s\n", o.traceOut)
	return nil
}

// Close stops the telemetry server, the profiles and the sampler, and
// closes the -events file if Finish did not. Idempotent and safe before
// or without Start; defer it right after NewObs.
func (o *Obs) Close() {
	if o.srv != nil {
		_ = o.srv.Close()
	}
	_ = o.events.Close() //lint:allow sinkerr backstop for early returns; Finish checks Close on the success path
	if o.stopProfiles != nil {
		o.stopProfiles()
		o.stopProfiles = nil
	}
	o.sampler.Stop()
}
