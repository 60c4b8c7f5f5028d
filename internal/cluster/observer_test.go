package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"

	"taccc/internal/obs"
	"taccc/internal/obs/slo"
)

// observerDeadline bounds every run below: a Run that deadlocks fails its
// case instead of hanging the package's tests.
const observerDeadline = 20 * time.Second

// observedConfig is goldenSimConfig with no warmup, so Result counts every
// request exit, under discipline d: full queues and an unreachable device
// drop requests at both places a drop can happen, and half the requests
// are traced.
func observedConfig(d Discipline) Config {
	cfg := goldenSimConfig()
	cfg.WarmupMs = 0
	cfg.Discipline = d
	cfg.MaxQueue = 4
	cfg.TraceSampleRate = 0.5
	cfg.UplinkMs[4][cfg.Assignment[4]] = math.Inf(1)
	cfg.DownlinkMs[4][cfg.Assignment[4]] = math.Inf(1)
	return cfg
}

// observerRuns are horizons with a known number of request exits: none,
// fewer than one 512-exit batch, exactly two batches, and two batches
// plus one. hashes pins the FNV-64a of the span JSONL stream, the metrics
// snapshot and the SLO JSONL stream of each run; they were captured on
// the simulator that booked every plane from its event loop.
var observerRuns = []struct {
	name   string
	d      Discipline
	durMs  float64
	exits  int
	hashes [3]string
}{
	{"fifo/0", DisciplineFIFO, 3.206, 0, [3]string{"cbf29ce484222325", "564f045cc76875b0", "04a3e45cc755a3f4"}},
	{"fifo/100", DisciplineFIFO, 93.45, 100, [3]string{"2730182d4827e808", "b89a1fa32c6e467e", "7586b7a7f573fe0a"}},
	{"fifo/1024", DisciplineFIFO, 911.561, 1024, [3]string{"f7274a3c4350ece5", "bd9f718be097ad93", "8b5dc3522ae6b4ec"}},
	{"fifo/1025", DisciplineFIFO, 912.726, 1025, [3]string{"9922cbb269591f1f", "51e758e1a94cfe62", "378ed8c72589e91d"}},
	{"ps/0", DisciplinePS, 3.795, 0, [3]string{"cbf29ce484222325", "ba26736744e6a196", "04a3e45cc755a3f4"}},
	{"ps/100", DisciplinePS, 92.317, 100, [3]string{"1cf1261486e79ddd", "81b798b9d37728ae", "903da9844189a9b3"}},
	{"ps/1024", DisciplinePS, 910.561, 1024, [3]string{"bec22989b6479ecf", "313a0ce878a90200", "78c4b845b2d7f04a"}},
	{"ps/1025", DisciplinePS, 911.739, 1025, [3]string{"cd50b3c51275f8d7", "ea244eb1cdd4370a", "08db43c1f8f8bd21"}},
}

// The output planes, as bits of a plane set.
const (
	planeSpans = 1 << iota
	planeMetrics
	planeSLO
	planeAll = planeSpans | planeMetrics | planeSLO
)

var planeNames = [3]string{"spans", "metrics", "slo"}

// observedPlanes attaches the planes in set to cfg and returns a function
// that hashes each attached plane's output once Run has returned ("" for
// a plane left off).
func observedPlanes(t *testing.T, cfg *Config, set int) func() [3]string {
	t.Helper()
	var spans, sloEvents bytes.Buffer
	spanSink, sloSink := obs.NewJSONL(&spans), obs.NewJSONL(&sloEvents)
	if set&planeSpans != 0 {
		cfg.Spans = spanSink
	}
	if set&planeMetrics != 0 {
		cfg.Metrics = obs.NewRegistry()
	}
	if set&planeSLO != 0 {
		objs, err := slo.ParseObjectives("p95<=12@95,queue.p99<=4@90,miss<=0.02@95")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.SLO, err = slo.New(slo.Config{WindowMs: 100, Objectives: objs, Sink: sloSink}); err != nil {
			t.Fatal(err)
		}
	}
	return func() [3]string {
		var metrics bytes.Buffer
		if cfg.Metrics != nil {
			if err := cfg.Metrics.WriteJSON(&metrics); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range []*obs.JSONL{spanSink, sloSink} {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		var out [3]string
		for k, b := range [][]byte{spans.Bytes(), metrics.Bytes(), sloEvents.Bytes()} {
			if set&(1<<k) != 0 {
				h := fnv.New64a()
				h.Write(b)
				out[k] = fmt.Sprintf("%016x", h.Sum64())
			}
		}
		return out
	}
}

// runWithin runs s for durMs in its own goroutine and fails the test if
// Run has not returned within observerDeadline.
func runWithin(t *testing.T, s *Simulator, durMs float64) *Result {
	t.Helper()
	var res *Result
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = s.Run(durMs)
	}()
	select {
	case <-done:
	case <-time.After(observerDeadline):
		t.Fatalf("Run(%v) did not return within %v", durMs, observerDeadline)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireJoined fails the test unless the run started an observer and
// that observer had booked every exit and ended by the time Run returned.
// It reads the run's own state, not the process's goroutine count, which
// another test's observer can still hold for a moment after its run.
func requireJoined(t *testing.T, s *Simulator) {
	t.Helper()
	if s.observer == nil {
		t.Fatal("an observed run started no observer")
	}
	select {
	case <-s.observer.done:
	default:
		t.Fatal("Run returned before its observer ended")
	}
}

// TestObserverLifetime runs each horizon with each plane alone and with
// all three, under FIFO and PS. Every run must return, book exactly its
// exits, write each plane's pinned bytes and leave no goroutine behind.
// The horizons put the run's last exit before the first batch, inside
// it, exactly on the second batch's end and one past it, the points at
// which a hand-off between the event loop and the observer can stall.
func TestObserverLifetime(t *testing.T) {
	for _, r := range observerRuns {
		for _, set := range []int{planeSpans, planeMetrics, planeSLO, planeAll} {
			name := r.name
			for k, p := range planeNames {
				if set&(1<<k) != 0 {
					name += "/" + p
				}
			}
			t.Run(name, func(t *testing.T) {
				cfg := observedConfig(r.d)
				hashes := observedPlanes(t, &cfg, set)
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := runWithin(t, s, r.durMs)
				if got := res.Completed + res.Dropped; got != r.exits {
					t.Fatalf("%d exits, want %d", got, r.exits)
				}
				got := hashes()
				for k, p := range planeNames {
					if set&(1<<k) != 0 && got[k] != r.hashes[k] {
						t.Errorf("%s hash %s, pinned %s", p, got[k], r.hashes[k])
					}
				}
				requireJoined(t, s)
			})
		}
	}
}

// TestObserverPlanesOffStartsNoGoroutine pins that a run with every plane
// off books its exits on the event loop alone: midway through the run it
// has no observer.
func TestObserverPlanesOffStartsNoGoroutine(t *testing.T) {
	s, err := New(observedConfig(DisciplineFIFO))
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	if err := s.at(500, func() {
		checked = true
		if s.observer != nil {
			t.Error("a run with every plane off started an observer")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the mid-run control point never ran")
	}
}

// TestObserverJoinedOnPanic lets a control closure panic halfway through
// an observed run: the panic must reach Run's caller unchanged, and the
// observer must not outlive the run.
func TestObserverJoinedOnPanic(t *testing.T) {
	for name, d := range map[string]Discipline{"fifo": DisciplineFIFO, "ps": DisciplinePS} {
		t.Run(name, func(t *testing.T) {
			cfg := observedConfig(d)
			observedPlanes(t, &cfg, planeAll)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.at(600, func() { panic("control failed") }); err != nil {
				t.Fatal(err)
			}
			recovered := make(chan interface{}, 1)
			go func() {
				defer func() { recovered <- recover() }()
				_, _ = s.Run(1500)
			}()
			select {
			case v := <-recovered:
				if v != "control failed" {
					t.Fatalf("recovered %v, want the control closure's panic", v)
				}
			case <-time.After(observerDeadline):
				t.Fatalf("a panicking Run did not return within %v", observerDeadline)
			}
			requireJoined(t, s)
		})
	}
}

// TestObserverSnapshotWhileRunning reads the run's registry from another
// goroutine while Run observes, as the telemetry server does; under
// -race it checks that every live value is shared safely. The final
// snapshot must count every exit.
func TestObserverSnapshotWhileRunning(t *testing.T) {
	cfg := observedConfig(DisciplinePS)
	reg := obs.NewRegistry()
	objs, err := slo.ParseObjectives("p95<=12@95,miss<=0.02@95")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := slo.New(slo.Config{WindowMs: 100, Objectives: objs, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics, cfg.SLO, cfg.Spans = reg, tr, obs.NewJSONL(new(bytes.Buffer))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	reads := 0
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snap := reg.Snapshot(); snap.Counters["cluster.requests_sent"] < 0 {
				t.Error("negative request count")
			}
			reads++
		}
	}()
	res := runWithin(t, s, 5000)
	close(stop)
	wg.Wait()
	snap := reg.Snapshot()
	exits := snap.Counters["cluster.requests_ok"] + snap.Counters["cluster.requests_missed"] + snap.Counters["cluster.requests_dropped"]
	if want := int64(res.Completed + res.Dropped); exits != want {
		t.Fatalf("final snapshot counts %d exits, Result %d", exits, want)
	}
	t.Logf("%d snapshots read during a run of %d exits", reads, exits)
}
