// Package sysmon is the resource half of the observability layer: a
// nil-safe, off-by-default sampler over runtime/metrics and
// runtime.ReadMemStats that feeds every existing plane at once. Each
// sample carries heap in-use/allocated bytes, the cumulative allocation
// totals and derived alloc rate, GC cycle and pause totals, the live
// goroutine count and (on Linux) the process RSS. Samples land as
// go.*/proc.* gauges and counters in a metrics registry (served on the
// Prometheus /metrics endpoint and rendered by tactop), as "res" events
// on a Sink (persisted as resources.jsonl in run archives, alongside
// trace.jsonl and like it outside the byte-identical determinism set),
// and — via the Collector and CounterSamples — as Chrome trace counter
// ("C") events so Perfetto draws heap and goroutine curves under the
// pipeline phase spans.
//
// Timestamps come from an obs.Clock. Production wiring passes
// obs.WallClock, whose process-wide epoch is shared with the pipeline
// tracer, so resource samples and phase spans are mutually comparable —
// tacreport joins them by time window to compute per-phase peak heap.
// Tests drive the sampler with an obs.ManualClock and get fully
// deterministic tick sequences.
//
// This package is the one sanctioned consumer of runtime memory
// statistics: taclint's resmon analyzer forbids runtime.ReadMemStats,
// runtime.NumGoroutine and runtime/metrics everywhere else (the bench
// harness annotates its measurement reads in place). Everything here is
// nil-safe — a nil *Sampler no-ops, which is the "sysmon off" state —
// and the off path adds zero allocations, pinned by benchmark.
package sysmon

import (
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"taccc/internal/obs"
)

// DefaultInterval is the sampling period used when none is given — slow
// enough to be invisible in profiles, fast enough that tactop and
// Perfetto curves stay useful.
const DefaultInterval = 250 * time.Millisecond

// EventKind tags resource-sample events on the Sink plane.
const EventKind = "res"

// Sample is one resource reading. TMs is the obs.Clock timestamp
// (comparable with pipeline span times when both use WallClock); UnixMs
// is real time, kept so offline consumers and tactop's staleness check
// can age a sample without knowing the clock's epoch.
type Sample struct {
	TMs             float64
	UnixMs          int64
	HeapInuseBytes  uint64
	HeapAllocBytes  uint64
	TotalAllocBytes uint64
	Mallocs         uint64
	// AllocBytesPerS is the allocation rate since the previous sample
	// (0 on the first sample of a sampler).
	AllocBytesPerS float64
	GCCycles       uint64
	GCPauseMs      float64
	Goroutines     int
	// RSSBytes is the process resident set size, 0 where unavailable.
	RSSBytes uint64
}

// Event renders the sample as a Sink event of kind "res". The field set
// is fixed and JSONL encoding sorts keys, so streams are stable.
func (s Sample) Event() obs.Event {
	return obs.Event{Kind: EventKind, Fields: map[string]interface{}{
		"t_ms":              s.TMs,
		"unix_ms":           s.UnixMs,
		"heap_inuse_bytes":  s.HeapInuseBytes,
		"heap_alloc_bytes":  s.HeapAllocBytes,
		"total_alloc_bytes": s.TotalAllocBytes,
		"mallocs":           s.Mallocs,
		"alloc_bytes_per_s": s.AllocBytesPerS,
		"gc_cycles":         s.GCCycles,
		"gc_pause_ms":       s.GCPauseMs,
		"goroutines":        s.Goroutines,
		"rss_bytes":         s.RSSBytes,
	}}
}

// SampleFromEvent inverts Sample.Event: it decodes a "res" event (live
// or read back from resources.jsonl) into a Sample. ok is false for any
// other kind or when a required field is missing/mistyped.
func SampleFromEvent(e obs.Event) (Sample, bool) {
	if e.Kind != EventKind {
		return Sample{}, false
	}
	t, ok := e.Num("t_ms")
	if !ok {
		return Sample{}, false
	}
	unix, ok := e.Int("unix_ms")
	if !ok {
		return Sample{}, false
	}
	heapInuse, ok := e.Int("heap_inuse_bytes")
	if !ok {
		return Sample{}, false
	}
	heapAlloc, ok := e.Int("heap_alloc_bytes")
	if !ok {
		return Sample{}, false
	}
	total, ok := e.Int("total_alloc_bytes")
	if !ok {
		return Sample{}, false
	}
	mallocs, ok := e.Int("mallocs")
	if !ok {
		return Sample{}, false
	}
	rate, ok := e.Num("alloc_bytes_per_s")
	if !ok {
		return Sample{}, false
	}
	gc, ok := e.Int("gc_cycles")
	if !ok {
		return Sample{}, false
	}
	pause, ok := e.Num("gc_pause_ms")
	if !ok {
		return Sample{}, false
	}
	gor, ok := e.Int("goroutines")
	if !ok {
		return Sample{}, false
	}
	rss, ok := e.Int("rss_bytes")
	if !ok {
		return Sample{}, false
	}
	return Sample{
		TMs:             t,
		UnixMs:          unix,
		HeapInuseBytes:  uint64(heapInuse),
		HeapAllocBytes:  uint64(heapAlloc),
		TotalAllocBytes: uint64(total),
		Mallocs:         uint64(mallocs),
		AllocBytesPerS:  rate,
		GCCycles:        uint64(gc),
		GCPauseMs:       pause,
		Goroutines:      int(gor),
		RSSBytes:        uint64(rss),
	}, true
}

// SamplesFromEvents extracts every decodable sample from an event
// stream, in stream order.
func SamplesFromEvents(events []obs.Event) []Sample {
	var out []Sample
	for _, e := range events {
		if s, ok := SampleFromEvent(e); ok {
			out = append(out, s)
		}
	}
	return out
}

// ReadSnapshot reads the runtime's current resource state: MemStats for
// the heap/GC numbers, runtime/metrics for the goroutine count. This is
// the package's single doorway into the runtime's statistics.
func ReadSnapshot() obs.ResourceSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return obs.ResourceSnapshot{
		HeapInuseBytes:  ms.HeapInuse,
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		GCCycles:        uint64(ms.NumGC),
		GCPauseMs:       float64(ms.PauseTotalNs) / 1e6,
		Goroutines:      goroutines(),
	}
}

// goroutines reads the live goroutine count through runtime/metrics,
// falling back to runtime.NumGoroutine should the metric ever change
// kind.
func goroutines() int {
	s := []runtimemetrics.Sample{{Name: "/sched/goroutines:goroutines"}}
	runtimemetrics.Read(s)
	if s[0].Value.Kind() == runtimemetrics.KindUint64 {
		return int(s[0].Value.Uint64())
	}
	return runtime.NumGoroutine()
}

// readRSS returns the process resident set size in bytes, 0 where the
// platform offers no /proc/self/statm (the second field is resident
// pages).
func readRSS() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// Options configures a Sampler. Every field is optional.
type Options struct {
	// Clock timestamps samples (WallClock when nil). Use the wall clock
	// in production so sample times align with pipeline spans; tests use
	// an obs.ManualClock.
	Clock obs.Clock
	// Registry receives the go.*/proc.*/sysmon.* metrics. A CLI passes
	// its run's one registry, which the telemetry server serves whole;
	// archives leave these live-only prefixes out of metrics.json, which
	// stays byte-identical with sysmon on or off.
	Registry *obs.Registry
	// Sink receives one "res" event per sample (resources.jsonl, the
	// in-memory Collector). May be nil.
	Sink obs.Sink
}

// Sampler takes resource samples, either one-shot (Sample) or on a
// background ticker (Start/Stop). The nil *Sampler is the off switch:
// every method no-ops without allocating, so call sites thread a
// possibly-nil sampler unconditionally. It also implements
// obs.ResourceSource, so a Tracer can snapshot resources at phase
// boundaries through it.
type Sampler struct {
	clock obs.Clock
	reg   *obs.Registry

	mu      sync.Mutex
	sink    obs.Sink
	prev    Sample
	hasPrev bool
	stop    chan struct{}
	done    chan struct{}
}

// New builds a sampler. The zero Options value gives a wall-clock
// sampler with no registry and no sink — still usable one-shot.
func New(opts Options) *Sampler {
	clock := opts.Clock
	if clock == nil {
		clock = obs.WallClock()
	}
	return &Sampler{clock: clock, reg: opts.Registry, sink: opts.Sink}
}

// ResourceSnapshot implements obs.ResourceSource with a fresh runtime
// read — phase boundaries get boundary-accurate values, not the last
// periodic sample. Nil-safe (zero snapshot).
func (s *Sampler) ResourceSnapshot() obs.ResourceSnapshot {
	if s == nil {
		return obs.ResourceSnapshot{}
	}
	return ReadSnapshot()
}

// Sample takes one resource sample: reads the runtime, derives the
// allocation rate from the previous sample, publishes to the registry
// and emits the "res" event. Safe for concurrent use; nil-safe (zero
// Sample).
func (s *Sampler) Sample() Sample {
	if s == nil {
		return Sample{}
	}
	snap := ReadSnapshot()
	smp := Sample{
		TMs:             s.clock.NowMs(),
		UnixMs:          time.Now().UnixMilli(),
		HeapInuseBytes:  snap.HeapInuseBytes,
		HeapAllocBytes:  snap.HeapAllocBytes,
		TotalAllocBytes: snap.TotalAllocBytes,
		Mallocs:         snap.Mallocs,
		GCCycles:        snap.GCCycles,
		GCPauseMs:       snap.GCPauseMs,
		Goroutines:      snap.Goroutines,
		RSSBytes:        readRSS(),
	}
	s.mu.Lock()
	prev, hasPrev := s.prev, s.hasPrev
	if hasPrev && smp.TMs > prev.TMs {
		smp.AllocBytesPerS = float64(smp.TotalAllocBytes-prev.TotalAllocBytes) / ((smp.TMs - prev.TMs) / 1000)
	}
	s.prev, s.hasPrev = smp, true
	sink := s.sink
	s.mu.Unlock()

	if s.reg != nil {
		s.reg.Gauge("go.heap_inuse_bytes").Set(float64(smp.HeapInuseBytes))
		s.reg.Gauge("go.heap_alloc_bytes").Set(float64(smp.HeapAllocBytes))
		s.reg.Gauge("go.goroutines").Set(float64(smp.Goroutines))
		s.reg.Gauge("go.alloc_bytes_per_s").Set(smp.AllocBytesPerS)
		s.reg.Gauge("go.gc_pause_ms_total").Set(smp.GCPauseMs)
		s.reg.Gauge("proc.rss_bytes").Set(float64(smp.RSSBytes))
		s.reg.Gauge("sysmon.last_sample_unix_ms").Set(float64(smp.UnixMs))
		// Cumulative runtime totals become counters by adding the delta
		// since the previous sample (the first sample contributes the
		// whole process-lifetime total).
		s.reg.Counter("go.alloc_bytes_total").Add(int64(smp.TotalAllocBytes - prevOr0(hasPrev, prev.TotalAllocBytes)))
		s.reg.Counter("go.allocs_total").Add(int64(smp.Mallocs - prevOr0(hasPrev, prev.Mallocs)))
		s.reg.Counter("go.gc_cycles_total").Add(int64(smp.GCCycles - prevOr0(hasPrev, prev.GCCycles)))
		s.reg.Counter("sysmon.samples_total").Inc()
	}
	if sink != nil {
		sink.Emit(smp.Event())
	}
	return smp
}

func prevOr0(has bool, v uint64) uint64 {
	if !has {
		return 0
	}
	return v
}

// Start takes an immediate sample and then keeps sampling every
// interval on a background goroutine until Stop (DefaultInterval when
// interval <= 0). Starting an already-started sampler is a no-op;
// nil-safe.
func (s *Sampler) Start(interval time.Duration) {
	if s == nil {
		return
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.Gauge("sysmon.interval_ms").Set(float64(interval) / float64(time.Millisecond))
	}
	s.Sample()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.Sample()
			}
		}
	}()
}

// DetachSink takes one final sample and then detaches the event sink:
// later samples update only the registry. Call before sealing the sinks
// (archive close, trace export) while keeping the sampler alive — e.g.
// through tacsim's -linger window, where tactop still wants fresh
// gauges. Nil-safe.
func (s *Sampler) DetachSink() {
	if s == nil {
		return
	}
	s.Sample()
	s.mu.Lock()
	s.sink = nil
	s.mu.Unlock()
}

// Stop halts the background sampling goroutine and waits for it to
// exit. Idempotent and nil-safe; one-shot Sample keeps working after
// Stop.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Collector is a Sink that retains every resource sample it sees,
// decoded back into Samples — the in-memory side of the -trace-out
// counter-track export. Non-"res" events are ignored. Safe for
// concurrent emit; nil-safe.
type Collector struct {
	mu      sync.Mutex
	samples []Sample
}

// Emit implements obs.Sink.
func (c *Collector) Emit(e obs.Event) {
	if c == nil {
		return
	}
	s, ok := SampleFromEvent(e)
	if !ok {
		return
	}
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// Samples returns the collected samples in emission order.
func (c *Collector) Samples() []Sample {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Sample, len(c.samples))
	copy(out, c.samples)
	return out
}

// CounterSamples converts resource samples into Chrome counter tracks:
// heap (in-use and allocated bytes), goroutine count, cumulative GC
// pause, and — where sampled — process RSS. Timestamps pass through
// unchanged, so with wall-clock sampling the curves line up under the
// pipeline phase spans in Perfetto.
func CounterSamples(samples []Sample) []obs.CounterSample {
	out := make([]obs.CounterSample, 0, 4*len(samples))
	for _, s := range samples {
		out = append(out,
			obs.CounterSample{Name: "go.heap bytes", TsMs: s.TMs, Values: map[string]float64{
				"inuse": float64(s.HeapInuseBytes),
				"alloc": float64(s.HeapAllocBytes),
			}},
			obs.CounterSample{Name: "go.goroutines", TsMs: s.TMs, Values: map[string]float64{
				"count": float64(s.Goroutines),
			}},
			obs.CounterSample{Name: "go.gc_pause_ms", TsMs: s.TMs, Values: map[string]float64{
				"total": s.GCPauseMs,
			}},
		)
		if s.RSSBytes > 0 {
			out = append(out, obs.CounterSample{Name: "proc.rss bytes", TsMs: s.TMs, Values: map[string]float64{
				"rss": float64(s.RSSBytes),
			}})
		}
	}
	return out
}

// WatchPeak samples HeapAlloc every interval on a background goroutine
// until the returned stop function is called, which reports the highest
// value seen (including one final read at stop). The bench harness uses
// it to measure peak heap during a solve without threading a full
// sampler through; the watcher lives here so benchmark code outside
// this package needs no direct runtime reads.
func WatchPeak(interval time.Duration) (stop func() uint64) {
	if interval <= 0 {
		interval = time.Millisecond
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	return func() uint64 {
		close(quit)
		<-done
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		return peak
	}
}
