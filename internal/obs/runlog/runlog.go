// Package runlog writes and reads self-contained run archives: one
// directory per run holding everything needed to analyze or diff the
// run offline, long after the process that produced it is gone.
//
// Layout (format version 1):
//
//	<dir>/manifest.json    — tool, version, seed, config, wall-clock
//	<dir>/events.jsonl     — the JSONL event/span stream (may be empty)
//	<dir>/metrics.json     — final metrics-registry snapshot
//	<dir>/summary.json     — named scalar results (latency quantiles, ...)
//	<dir>/trace.jsonl      — pipeline trace (only with tracing on)
//	<dir>/resources.jsonl  — sysmon resource samples (only with -sysmon)
//	<dir>/slo.jsonl        — SLO window/eval/alert stream (only with -slo)
//
// The four .jsonl files are the archive's streams, kept in one table:
// the Writer opens events.jsonl at Create and each optional stream on its
// first Stream call, Close seals them all in one loop, and Load walks the
// same table. Every stream is written through obs.JSONL and every JSON
// file through WriteJSONFile, so each file has one encoder: sorted object
// keys, fixed indentation. Re-encoding a loaded archive therefore
// reproduces the original bytes exactly, which the package's tests check.
//
// Two runs of tacsolve or tacsim with the same seed and config produce
// byte-identical events.jsonl, metrics.json, summary.json and slo.jsonl
// at any -workers setting. The rest is wall-clock by design: the
// manifest's start_unix_ms and elapsed_ms, trace.jsonl and
// resources.jsonl, and the runtime_ms field of tacbench's "cell" events.
// cmd/tacreport consumes archives; tacsolve, tacsim and tacbench produce
// them behind the shared -archive flag (internal/cliutil).
package runlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"taccc/internal/jsonx"
	"taccc/internal/obs"
)

// FormatVersion identifies the archive layout; Load rejects archives
// written by a future incompatible format.
const FormatVersion = 1

// File names inside an archive directory.
const (
	ManifestFile = "manifest.json"
	EventsFile   = "events.jsonl"
	MetricsFile  = "metrics.json"
	SummaryFile  = "summary.json"
	// TraceFile holds the wall-clock pipeline trace (span events), kept
	// apart from events.jsonl because its bytes are inherently
	// nondeterministic: like the manifest's wall-clock fields, it is
	// excluded from the byte-identical determinism contract. The file
	// exists only when the producing tool ran with tracing enabled;
	// archives without it load fine.
	TraceFile = "trace.jsonl"
	// ResourcesFile holds the sysmon resource-sample stream ("res"
	// events: heap, GC, goroutines, RSS over time). Wall-clock driven and
	// machine-dependent, so — exactly like TraceFile — it sits outside
	// the byte-identical determinism set and exists only when the
	// producing tool ran with -sysmon.
	ResourcesFile = "resources.jsonl"
	// SLOFile holds the SLO plane's stream (slo-window / slo-eval /
	// slo-alert / slo-objective events). Unlike TraceFile and
	// ResourcesFile it is sim-time driven and therefore INSIDE the
	// byte-identical determinism set: two runs of the same seed, config
	// and SLO spec produce identical slo.jsonl at any worker count. The
	// file exists only when the producing tool ran with -slo.
	SLOFile = "slo.jsonl"
)

// Manifest identifies a run: which tool produced it, at which version,
// from which seed and configuration, and when. Config holds the tool's
// semantic flag settings as strings (execution-only flags — parallelism,
// profiling, telemetry, output paths — are excluded by the cliutil
// helper so that re-runs of the same logical experiment archive
// identically). StartUnixMs and ElapsedMs are the archive's only
// nondeterministic fields.
type Manifest struct {
	Format      int               `json:"format"`
	Tool        string            `json:"tool"`
	Version     string            `json:"version"`
	Seed        int64             `json:"seed"`
	Config      map[string]string `json:"config,omitempty"`
	StartUnixMs int64             `json:"start_unix_ms"`
	ElapsedMs   float64           `json:"elapsed_ms"`
}

// Summary is a run's named scalar results (deterministic by contract:
// wall-clock readings belong in the manifest, not here).
type Summary map[string]float64

// streams are the archive's JSONL files, in the order Writer.Close seals
// them, each with the Archive field it loads into. Only events.jsonl is
// required; the others exist when the producing tool turned their plane
// on, and Write leaves out a nil one.
var streams = [...]struct {
	name  string
	field func(*Archive) *[]obs.Event
}{
	{EventsFile, func(a *Archive) *[]obs.Event { return &a.Events }},
	{TraceFile, func(a *Archive) *[]obs.Event { return &a.Trace }},
	{ResourcesFile, func(a *Archive) *[]obs.Event { return &a.Resources }},
	{SLOFile, func(a *Archive) *[]obs.Event { return &a.SLO }},
}

// Writer streams one run into an archive directory: events go to
// events.jsonl as they happen, and each optional stream to its file once
// Stream opens it; manifest, metrics and summary are written by Close.
type Writer struct {
	dir    string
	man    Manifest
	open   [len(streams)]*obs.JSONL // by streams index; nil until opened
	start  time.Time
	closed bool
}

// Create initializes an archive directory (making it if needed) and
// opens the event stream. The manifest's Format and StartUnixMs are
// stamped here; ElapsedMs at Close.
func Create(dir string, man Manifest) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	events, err := obs.CreateJSONL(filepath.Join(dir, EventsFile))
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	now := time.Now()
	man.Format = FormatVersion
	man.StartUnixMs = now.UnixMilli()
	return &Writer{dir: dir, man: man, open: [len(streams)]*obs.JSONL{events}, start: now}, nil
}

// Sink returns the archive's event sink (nil on a nil receiver, so it
// can feed MultiSink unconditionally).
func (w *Writer) Sink() *obs.JSONL {
	if w == nil {
		return nil
	}
	return w.open[0]
}

// Stream opens the archive's optional stream name — TraceFile,
// ResourcesFile or SLOFile — and returns its sink; a second call returns
// the same sink. Close flushes and closes it. Tools that never open a
// stream produce archives without its file, the plane-off default. A
// nil receiver returns a nil sink.
func (w *Writer) Stream(name string) (*obs.JSONL, error) {
	if w == nil {
		return nil, nil
	}
	for i := 1; i < len(streams); i++ {
		if streams[i].name != name {
			continue
		}
		if w.open[i] == nil {
			s, err := obs.CreateJSONL(filepath.Join(w.dir, name))
			if err != nil {
				return nil, fmt.Errorf("runlog: %w", err)
			}
			w.open[i] = s
		}
		return w.open[i], nil
	}
	return nil, fmt.Errorf("runlog: %q is not an optional archive stream", name)
}

// Close seals every open stream and writes metrics.json, summary.json
// and manifest.json. It is idempotent; the first error anywhere in the
// archive's lifetime (including latched event-write errors) is
// returned, naming its file — an archive that did not fully reach disk
// must fail the run loudly. A nil snapshot or summary writes as empty,
// keeping the archive self-contained either way.
func (w *Writer) Close(snap obs.Snapshot, summary Summary) error {
	if w == nil || w.closed {
		return nil
	}
	w.closed = true
	var err error
	for i, s := range w.open {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("runlog: %s: %w", streams[i].name, cerr)
		}
	}
	if err != nil {
		return err
	}
	if err := WriteJSONFile(filepath.Join(w.dir, MetricsFile), snap); err != nil {
		return err
	}
	if summary == nil {
		summary = Summary{}
	}
	if err := WriteJSONFile(filepath.Join(w.dir, SummaryFile), summary); err != nil {
		return err
	}
	w.man.ElapsedMs = float64(time.Since(w.start).Nanoseconds()) / 1e6
	return WriteJSONFile(filepath.Join(w.dir, ManifestFile), w.man)
}

// WriteJSONFile writes v to path as canonical indented JSON (sorted keys
// via encoding/json's map ordering, two-space indent, trailing newline):
// the encoding of an archive's JSON files and of -metrics-out.
func WriteJSONFile(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("runlog: %s: %w", filepath.Base(path), err)
	}
	return nil
}

// Archive is a fully loaded run archive.
type Archive struct {
	// Dir is where the archive was loaded from ("" for synthesized
	// archives).
	Dir      string
	Manifest Manifest
	Metrics  obs.Snapshot
	// Events is the decoded event stream in emission order. Numeric
	// fields are json.Number (use the obs.Event typed accessors), which
	// is what makes Write reproduce events.jsonl byte-for-byte.
	Events  []obs.Event
	Summary Summary
	// Trace is the decoded pipeline-trace stream (span events), nil when
	// the archive has no trace file — runs with tracing off, and every
	// archive written before the trace plane existed.
	Trace []obs.Event
	// Resources is the decoded sysmon sample stream ("res" events), nil
	// when the archive has no resources file — runs with -sysmon off,
	// and every archive written before the resource plane existed.
	Resources []obs.Event
	// SLO is the decoded SLO stream (slo-window / slo-eval / slo-alert /
	// slo-objective events), nil when the archive has no SLO file — runs
	// with -slo off, and every archive written before the SLO plane
	// existed. Unlike Trace and Resources this stream is deterministic
	// per seed/config/spec.
	SLO []obs.Event
}

// IsArchiveDir reports whether dir looks like a run archive (has a
// manifest file) without loading it.
func IsArchiveDir(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, ManifestFile))
	return err == nil && st.Mode().IsRegular()
}

// Load reads and validates an archive. Errors are descriptive — they
// name the archive directory, the offending file and, for the event
// stream, the record index — and a truncated or corrupted file is
// reported rather than panicking downstream.
func Load(dir string) (*Archive, error) {
	a := &Archive{Dir: dir}
	if err := loadJSONFile(dir, ManifestFile, &a.Manifest); err != nil {
		return nil, err
	}
	if a.Manifest.Format != FormatVersion {
		return nil, fmt.Errorf("runlog: %s: unsupported archive format %d (this build reads format %d)",
			dir, a.Manifest.Format, FormatVersion)
	}
	if a.Manifest.Tool == "" {
		return nil, fmt.Errorf("runlog: %s: manifest has no tool name", dir)
	}
	if err := loadJSONFile(dir, MetricsFile, &a.Metrics); err != nil {
		return nil, err
	}
	if err := loadJSONFile(dir, SummaryFile, &a.Summary); err != nil {
		return nil, err
	}
	for i, st := range streams {
		f, err := os.Open(filepath.Join(dir, st.name))
		if i > 0 && os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("runlog: %s: %w", dir, err)
		}
		events, err := obs.ReadEventStream(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("runlog: %s: %s: %w", dir, st.name, err)
		}
		*st.field(a) = events
	}
	return a, nil
}

func loadJSONFile(dir, name string, v interface{}) error {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("runlog: %s: %w", dir, err)
	}
	defer f.Close()
	if err := jsonx.Decode(f, v); err != nil {
		return fmt.Errorf("runlog: %s: %s: invalid or truncated JSON: %w", dir, name, err)
	}
	return nil
}

// Spans decodes the archive's pipeline trace into spans, in emission
// order (nil when the archive has no trace).
func (a *Archive) Spans() []obs.Span {
	return obs.SpansFromEvents(a.Trace)
}

// IterEvents decodes the archive's solver-convergence stream: every
// kind "iter" event, in emission order.
func (a *Archive) IterEvents() []obs.IterEvent {
	var out []obs.IterEvent
	for _, e := range a.Events {
		if it, ok := e.Iter(); ok {
			out = append(out, it)
		}
	}
	return out
}
