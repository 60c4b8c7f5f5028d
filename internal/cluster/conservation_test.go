package cluster

import (
	"fmt"
	"math"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/workload"
	"taccc/internal/xrand"
)

// conservationCase is one random small simulation with a schedule of
// edge failures and recoveries and reconfigurations with a migration
// pause. At stopMs every device migrates away for the rest of the run,
// and the edges have capacity to spare, so the queues drain well before
// horizonMs.
type conservationCase struct {
	cfg      Config
	schedule func(*Simulator) error
	// desc names the configuration in failure messages.
	desc string
}

const (
	stopMs    = 10_000
	horizonMs = 20_000
)

func newConservationCase(seed int64) conservationCase {
	src := xrand.New(seed)
	n, m := 2+src.Intn(5), 2+src.Intn(3)
	cfg := Config{
		UplinkMs:    make([][]float64, n),
		Devices:     make([]workload.Device, n),
		ServiceRate: make([]float64, m),
		Assignment:  make([]int, n),
		WarmupMs:    src.Uniform(0, 500),
		Seed:        seed,
	}
	demand := 0.0
	for i := range cfg.Devices {
		cfg.Devices[i] = workload.Device{
			ID: i, RateHz: src.Uniform(5, 40), ComputeUnits: src.Uniform(0.5, 2), DeadlineMs: src.Uniform(0, 60),
		}
		demand += cfg.Devices[i].RateHz * cfg.Devices[i].ComputeUnits
		cfg.UplinkMs[i] = make([]float64, m)
		for j := range cfg.UplinkMs[i] {
			cfg.UplinkMs[i][j] = src.Uniform(0.5, 20)
		}
		cfg.Assignment[i] = src.Intn(m)
	}
	if src.Bernoulli(0.3) {
		// One unreachable pair: its requests drop at the device, untraced.
		cfg.UplinkMs[0][cfg.Assignment[0]] = math.Inf(1)
	}
	// Any one edge can serve all the traffic at utilisation below 2/3.
	for j := range cfg.ServiceRate {
		cfg.ServiceRate[j] = demand * src.Uniform(1.5, 3)
	}
	if src.Bernoulli(0.5) {
		cfg.Discipline = DisciplinePS
	}
	if src.Bernoulli(0.5) {
		cfg.MaxQueue = 1 + src.Intn(4)
	}
	if src.Bernoulli(0.5) {
		cfg.JitterSigma = 0.3
	}

	type reconfig struct {
		at, pause float64
		of        []int
	}
	// Every pause ends by 9 s, before stopMs.
	reconfigs := make([]reconfig, 1+src.Intn(2))
	var last reconfig
	for k := range reconfigs {
		of := make([]int, n)
		for i := range of {
			of[i] = src.Intn(m)
		}
		reconfigs[k] = reconfig{src.Uniform(1_000, 6_000), src.Uniform(0, 3_000), of}
		if reconfigs[k].at > last.at {
			last = reconfigs[k]
		}
	}
	// The stop moves every device off its last placement, so every
	// device pauses until after horizonMs.
	away := make([]int, n)
	for i := range away {
		away[i] = (last.of[i] + 1) % m
	}
	failEdge := src.Intn(m)
	failAt := src.Uniform(500, 8_000)
	recoverAt := failAt + src.Uniform(100, 3_000)

	return conservationCase{
		cfg: cfg,
		schedule: func(s *Simulator) error {
			for _, r := range reconfigs {
				if err := s.ScheduleReconfigureWithPause(r.at, r.of, r.pause); err != nil {
					return err
				}
			}
			if err := s.ScheduleReconfigureWithPause(stopMs, away, horizonMs); err != nil {
				return err
			}
			if err := s.ScheduleEdgeFailure(failAt, failEdge); err != nil {
				return err
			}
			return s.ScheduleEdgeRecovery(recoverAt, failEdge)
		},
		desc: fmt.Sprintf("seed %d: %d devices, %d edges, discipline %d, MaxQueue %d, jitter %v",
			seed, n, m, cfg.Discipline, cfg.MaxQueue, cfg.JitterSigma),
	}
}

// TestConservationUnderSchedules runs random small configurations under
// failure and migration-pause schedules, with every request
// traced. Once the queues drain, every request sent has exited exactly
// once: the requests_sent counter equals the ok, missed and dropped
// counters together. Spans account for every request that left its
// device: their trace IDs run from 1 without a gap, the traced
// completions equal the ok and missed counters, and the untraced requests
// are exactly the drops at the device, the dropped counter less the
// traced drops. Every trace is complete: a drop at the edge ends at its
// uplink child, and a completion's four children partition its root.
func TestConservationUnderSchedules(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		tc := newConservationCase(seed)
		cfg := tc.cfg
		reg := obs.NewRegistry()
		col := newSpanCollector()
		cfg.Metrics, cfg.Spans = reg, col
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.desc, err)
		}
		if err := tc.schedule(s); err != nil {
			t.Fatalf("%s: %v", tc.desc, err)
		}
		if _, err := s.Run(horizonMs); err != nil {
			t.Fatalf("%s: %v", tc.desc, err)
		}

		count := func(name string) int { return int(reg.Counter("cluster." + name).Value()) }
		sent, dropped := count("requests_sent"), count("requests_dropped")
		completed := count("requests_ok") + count("requests_missed")
		if sent == 0 || sent != completed+dropped {
			t.Fatalf("%s: %d requests sent, %d exited by the counters", tc.desc, sent, completed+dropped)
		}
		tracedDone, tracedDrops := 0, 0
		for _, tid := range col.order {
			// len(col.order) distinct IDs, each within 1..len(col.order).
			if tid < 1 || int(tid) > len(col.order) {
				t.Fatalf("%s: trace ID %d outside 1..%d: a traced request lost its trace",
					tc.desc, tid, len(col.order))
			}
			spans := col.traces[tid]
			checkTracePartition(t, tc.desc, spans)
			if outcome, _ := spans[len(spans)-1].AttrStr("outcome"); outcome == string(OutcomeDropped) {
				tracedDrops++
			} else {
				tracedDone++
			}
		}
		if tracedDone != completed {
			t.Fatalf("%s: %d traced completions, %d by the counters", tc.desc, tracedDone, completed)
		}
		if untraced := sent - len(col.order); untraced != dropped-tracedDrops {
			t.Fatalf("%s: %d untraced requests, want the %d drops less the %d traced ones",
				tc.desc, untraced, dropped, tracedDrops)
		}
	}
}

// checkTracePartition checks one complete trace: its children in order,
// contiguous from the root's start to its end, then the root.
func checkTracePartition(t *testing.T, desc string, spans []obs.Span) {
	t.Helper()
	root := spans[len(spans)-1]
	if root.Name != "request" || root.Parent != 0 {
		t.Fatalf("%s: trace %d does not end with its root: %+v", desc, root.Trace, spans)
	}
	want := []string{"uplink", "queue", "service", "downlink"}
	if outcome, _ := root.AttrStr("outcome"); outcome == string(OutcomeDropped) {
		want = want[:1]
	}
	children := spans[:len(spans)-1]
	if len(children) != len(want) {
		t.Fatalf("%s: trace %d has %d children, want %v: %+v", desc, root.Trace, len(children), want, spans)
	}
	at, sum := root.StartMs, 0.0
	for k, sp := range children {
		if sp.Name != want[k] || sp.Parent != root.ID || sp.StartMs != at || sp.EndMs < sp.StartMs {
			t.Fatalf("%s: trace %d child %d is %+v, want %q from %v", desc, root.Trace, k, sp, want[k], at)
		}
		at = sp.EndMs
		sum += sp.DurationMs()
	}
	if at != root.EndMs || math.Abs(sum-root.DurationMs()) > phaseTol {
		t.Fatalf("%s: trace %d children end at %v and sum to %v; root ends at %v and lasts %v",
			desc, root.Trace, at, sum, root.EndMs, root.DurationMs())
	}
}
