package cluster

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"taccc/internal/obs"
)

// spanCollector gathers emitted spans grouped by trace. Spans arrive from
// the run's one observer goroutine, which Run joins before it returns, so
// no locking is needed.
type spanCollector struct {
	order  []obs.TraceID
	traces map[obs.TraceID][]obs.Span
}

func newSpanCollector() *spanCollector {
	return &spanCollector{traces: make(map[obs.TraceID][]obs.Span)}
}

func (c *spanCollector) Emit(e obs.Event) {
	sp, ok := obs.SpanFromEvent(e)
	if !ok {
		return
	}
	if _, seen := c.traces[sp.Trace]; !seen {
		c.order = append(c.order, sp.Trace)
	}
	c.traces[sp.Trace] = append(c.traces[sp.Trace], sp)
}

// busyConfig loads simpleConfig enough that queueing actually happens.
func busyConfig() Config {
	cfg := simpleConfig()
	cfg.Devices[0].RateHz = 150
	cfg.Devices[1].RateHz = 150
	cfg.Devices[0].DeadlineMs = 15
	cfg.Devices[1].DeadlineMs = 15
	return cfg
}

const phaseTol = 1e-9

func TestTraceSpansPartitionLatency(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"fifo":        func(*Config) {},
		"fifo-jitter": func(c *Config) { c.JitterSigma = 0.3 },
		"ps":          func(c *Config) { c.Discipline = DisciplinePS },
	} {
		cfg := busyConfig()
		mutate(&cfg)
		col := newSpanCollector()
		cfg.Spans = col
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(10_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(col.traces) == 0 {
			t.Fatalf("%s: no traces emitted", name)
		}
		completed := 0
		wantNames := []string{"uplink", "queue", "service", "downlink", "request"}
		for tid, spans := range col.traces {
			if len(spans) != 5 {
				continue // in flight at horizon or dropped; checked elsewhere
			}
			root := spans[4]
			if root.Name != "request" || root.Parent != 0 {
				t.Fatalf("%s: trace %d does not end with a root request span: %+v", name, tid, spans)
			}
			completed++
			sum := 0.0
			at := root.StartMs
			for k, sp := range spans[:4] {
				if sp.Name != wantNames[k] {
					t.Fatalf("%s: trace %d child %d named %q, want %q", name, tid, k, sp.Name, wantNames[k])
				}
				if sp.Parent != 1 || sp.Trace != tid {
					t.Fatalf("%s: trace %d child %q has parent %d trace %d", name, tid, sp.Name, sp.Parent, sp.Trace)
				}
				if math.Abs(sp.StartMs-at) > phaseTol {
					t.Fatalf("%s: trace %d child %q starts at %v, want contiguous %v", name, tid, sp.Name, sp.StartMs, at)
				}
				at = sp.EndMs
				sum += sp.DurationMs()
			}
			if math.Abs(sum-root.DurationMs()) > phaseTol {
				t.Fatalf("%s: trace %d children sum to %v, root lasts %v", name, tid, sum, root.DurationMs())
			}
		}
		// Warmup is 0 and nothing drops, so completed traces and Result
		// completions count the same requests.
		if completed != res.Completed {
			t.Fatalf("%s: %d completed traces vs %d completions", name, completed, res.Completed)
		}
	}
}

// TestPhaseHistogramsSumToLatency is the acceptance check that the
// per-phase delay histograms decompose the end-to-end latency histogram:
// same observation count per phase, and phase sums adding up to the
// latency sum within float tolerance.
func TestPhaseHistogramsSumToLatency(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"fifo":      func(*Config) {},
		"ps":        func(c *Config) { c.Discipline = DisciplinePS },
		"jitter":    func(c *Config) { c.JitterSigma = 0.4 },
		"downlink+": func(c *Config) { c.DownlinkMs = [][]float64{{2, 20}, {20, 2}} },
	} {
		cfg := busyConfig()
		mutate(&cfg)
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(10_000); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		lat := snap.Histograms["cluster.latency_ms"]
		if lat.Count == 0 {
			t.Fatalf("%s: empty latency histogram", name)
		}
		phaseSum := 0.0
		for _, phase := range []string{"uplink", "queue", "service", "downlink"} {
			h, ok := snap.Histograms["cluster.delay."+phase+"_ms"]
			if !ok {
				t.Fatalf("%s: missing cluster.delay.%s_ms", name, phase)
			}
			if h.Count != lat.Count {
				t.Fatalf("%s: %s histogram has %d observations, latency has %d", name, phase, h.Count, lat.Count)
			}
			phaseSum += h.Sum
		}
		if rel := math.Abs(phaseSum-lat.Sum) / lat.Sum; rel > 1e-9 {
			t.Fatalf("%s: phase sums %v vs latency sum %v (rel err %v)", name, phaseSum, lat.Sum, rel)
		}
	}
}

func TestSpansDoNotPerturbSimulation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"fifo":    func(*Config) {},
		"ps":      func(c *Config) { c.Discipline = DisciplinePS },
		"jitter":  func(c *Config) { c.JitterSigma = 0.3 },
		"sampled": func(c *Config) { c.TraceSampleRate = 0.25 },
	} {
		mk := func() Config {
			cfg := busyConfig()
			cfg.WarmupMs = 500
			mutate(&cfg)
			return cfg
		}
		s1, err := New(mk())
		if err != nil {
			t.Fatal(err)
		}
		bare, err := s1.Run(5_000)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mk()
		cfg.Spans = newSpanCollector()
		s2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := s2.Run(5_000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, traced) {
			t.Errorf("%s: attaching a span sink changed the Result:\n%+v\nvs\n%+v", name, bare, traced)
		}
	}
}

// TestSpanSamplingDeterministic runs the same sampled config twice through
// JSONL and demands byte-identical output — the library-level half of the
// workers=1-vs-8 CLI guarantee.
func TestSpanSamplingDeterministic(t *testing.T) {
	runOnce := func() []byte {
		var buf bytes.Buffer
		cfg := busyConfig()
		cfg.JitterSigma = 0.2
		cfg.TraceSampleRate = 0.5
		cfg.Spans = obs.NewJSONL(&buf)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(8_000); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Spans.(*obs.JSONL).Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if len(a) == 0 {
		t.Fatal("no span events emitted")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("sampled span stream differs between identical runs")
	}
}

func TestSpanSamplingThinsTraces(t *testing.T) {
	countTraces := func(rate float64) int {
		cfg := busyConfig()
		cfg.TraceSampleRate = rate
		col := newSpanCollector()
		cfg.Spans = col
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(10_000); err != nil {
			t.Fatal(err)
		}
		return len(col.traces)
	}
	all := countTraces(0) // 0 = trace everything
	half := countTraces(0.5)
	if all == 0 {
		t.Fatal("rate 0 should trace everything, got none")
	}
	if half == 0 || half >= all {
		t.Fatalf("rate 0.5 should thin traces: %d sampled vs %d full", half, all)
	}
	if frac := float64(half) / float64(all); frac < 0.3 || frac > 0.7 {
		t.Errorf("rate 0.5 sampled %.2f of traces, want ~0.5", frac)
	}
}

func TestDroppedRequestTraces(t *testing.T) {
	cfg := busyConfig()
	cfg.MaxQueue = 1
	col := newSpanCollector()
	cfg.Spans = col
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("config should force queue-full drops")
	}
	dropped := 0
	for tid, spans := range col.traces {
		last := spans[len(spans)-1]
		if last.Name != "request" {
			continue // request still in flight at the horizon
		}
		if last.Attrs["outcome"] != string(OutcomeDropped) {
			continue
		}
		dropped++
		if len(spans) != 2 || spans[0].Name != "uplink" {
			t.Fatalf("dropped trace %d should be uplink+root, got %+v", tid, spans)
		}
		if spans[0].EndMs != last.EndMs {
			t.Fatalf("dropped trace %d uplink ends %v, root ends %v", tid, spans[0].EndMs, last.EndMs)
		}
	}
	if dropped != res.Dropped {
		t.Fatalf("%d dropped traces vs %d dropped requests", dropped, res.Dropped)
	}
}

func TestTraceSampleRateValidation(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.1, math.NaN()} {
		cfg := simpleConfig()
		cfg.TraceSampleRate = rate
		if _, err := New(cfg); err == nil {
			t.Errorf("TraceSampleRate %v accepted", rate)
		}
	}
}
