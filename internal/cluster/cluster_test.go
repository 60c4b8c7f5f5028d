package cluster

import (
	"math"
	"testing"
	"time"

	"taccc/internal/workload"
)

// simpleConfig builds a 2-device, 2-edge config with deterministic delays.
func simpleConfig() Config {
	return Config{
		UplinkMs: [][]float64{
			{5, 50},
			{50, 5},
		},
		Devices: []workload.Device{
			{ID: 0, RateHz: 10, ComputeUnits: 1, PayloadKB: 1, DeadlineMs: 100},
			{ID: 1, RateHz: 10, ComputeUnits: 1, PayloadKB: 1, DeadlineMs: 100},
		},
		ServiceRate: []float64{1000, 1000}, // 1 ms service
		Assignment:  []int{0, 1},
		Seed:        1,
	}
}

func TestValidation(t *testing.T) {
	base := simpleConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no devices", func(c *Config) { c.Devices = nil; c.UplinkMs = nil; c.Assignment = nil }},
		{"no edges", func(c *Config) { c.ServiceRate = nil }},
		{"uplink rows", func(c *Config) { c.UplinkMs = c.UplinkMs[:1] }},
		{"uplink cols", func(c *Config) { c.UplinkMs = [][]float64{{1}, {1}} }},
		{"downlink rows", func(c *Config) { c.DownlinkMs = [][]float64{{1, 1}} }},
		{"downlink cols", func(c *Config) { c.DownlinkMs = [][]float64{{1}, {1}} }},
		{"zero rate", func(c *Config) { c.ServiceRate = []float64{0, 1000} }},
		{"assignment len", func(c *Config) { c.Assignment = []int{0} }},
		{"assignment range", func(c *Config) { c.Assignment = []int{0, 7} }},
		{"negative warmup", func(c *Config) { c.WarmupMs = -1 }},
		{"NaN warmup", func(c *Config) { c.WarmupMs = math.NaN() }},
		{"+Inf warmup", func(c *Config) { c.WarmupMs = math.Inf(1) }},
		{"NaN uplink", func(c *Config) { c.UplinkMs[0][1] = math.NaN() }},
		{"negative uplink", func(c *Config) { c.UplinkMs[1][0] = -5 }},
		{"NaN downlink", func(c *Config) { c.DownlinkMs = [][]float64{{1, 1}, {math.NaN(), 1}} }},
		{"negative downlink", func(c *Config) { c.DownlinkMs = [][]float64{{1, -1}, {1, 1}} }},
		{"+Inf downlink behind a finite uplink", func(c *Config) { c.DownlinkMs = [][]float64{{1, math.Inf(1)}, {1, 1}} }},
	}
	for _, tc := range cases {
		cfg := simpleConfig()
		_ = base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLatencyComposition(t *testing.T) {
	// Low rate so queueing is negligible: latency ~= uplink + service +
	// downlink = 5 + 1 + 5 = 11 ms.
	cfg := simpleConfig()
	cfg.Devices[0].RateHz = 1
	cfg.Devices[1].RateHz = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(60_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 50 {
		t.Fatalf("only %d completions in 60 s at 2 req/s", res.Completed)
	}
	med := res.Latency.Median()
	if math.Abs(med-11) > 0.5 {
		t.Fatalf("median latency = %v ms, want ~11", med)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("%d deadline misses at light load", res.DeadlineMisses)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d drops with no failures", res.Dropped)
	}
}

func TestRunTwiceFails(t *testing.T) {
	s, err := New(simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestRunRejectsShortDuration(t *testing.T) {
	cfg := simpleConfig()
	cfg.WarmupMs = 500
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(400); err == nil {
		t.Fatal("duration <= warmup accepted")
	}
}

// TestRunRejectsNonFiniteDuration requires Run to refuse a NaN or +Inf
// horizon, which the event loop would never reach. Each Run gets a
// deadline, so a loop that re-arms arrivals forever fails the test
// instead of hanging it.
func TestRunRejectsNonFiniteDuration(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		s, err := New(simpleConfig())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.Run(d)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("Run(%v) accepted", d)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Run(%v) did not return within 10 s", d)
		}
	}
}

// TestScheduleRejectsBadTimes requires every Schedule* method to return
// an error, not panic, for a NaN or negative time, or for one before the
// clock, which a finished Run has moved to its horizon.
func TestScheduleRejectsBadTimes(t *testing.T) {
	up := [][]float64{{5, 50}, {50, 5}}
	for _, tc := range []struct {
		name     string
		schedule func(s *Simulator, tMs float64) error
	}{
		{"uplink update", func(s *Simulator, tMs float64) error { return s.ScheduleUplinkUpdate(tMs, up, nil) }},
		{"reconfigure", func(s *Simulator, tMs float64) error { return s.ScheduleReconfigureWithPause(tMs, []int{1, 0}, 0) }},
		{"reconfigure with pause", func(s *Simulator, tMs float64) error {
			return s.ScheduleReconfigureWithPause(tMs, []int{1, 0}, 10)
		}},
		{"edge failure", func(s *Simulator, tMs float64) error { return s.ScheduleEdgeFailure(tMs, 0) }},
		{"edge recovery", func(s *Simulator, tMs float64) error { return s.ScheduleEdgeRecovery(tMs, 0) }},
	} {
		for _, tMs := range []float64{math.NaN(), -1} {
			s, err := New(simpleConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.schedule(s, tMs); err == nil {
				t.Errorf("%s at %v accepted", tc.name, tMs)
			}
		}
		s, err := New(simpleConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(1000); err != nil {
			t.Fatal(err)
		}
		if err := tc.schedule(s, 500); err == nil {
			t.Errorf("%s at 500 ms after a 1000 ms run accepted", tc.name)
		}
	}
}

func TestBadAssignmentRaisesLatency(t *testing.T) {
	good, err := New(simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	gr, err := good.Run(30_000)
	if err != nil {
		t.Fatal(err)
	}
	bad := simpleConfig()
	bad.Assignment = []int{1, 0} // cross-assigned: 50 ms uplinks
	b, err := New(bad)
	if err != nil {
		t.Fatal(err)
	}
	br, err := b.Run(30_000)
	if err != nil {
		t.Fatal(err)
	}
	if br.Latency.Median() <= gr.Latency.Median()+50 {
		t.Fatalf("bad assignment median %v not clearly above good %v",
			br.Latency.Median(), gr.Latency.Median())
	}
}

func TestQueueingUnderOverload(t *testing.T) {
	// Service takes 100 ms but requests arrive at ~20 Hz on one edge:
	// utilization > 1, queue grows, latency explodes.
	cfg := simpleConfig()
	cfg.Devices[0].RateHz = 20
	cfg.ServiceRate[0] = 10 // 1 unit / 10 per sec = 100 ms service
	cfg.Assignment = []int{0, 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakQueue[0] < 10 {
		t.Fatalf("peak queue %d; expected a long backlog", res.PeakQueue[0])
	}
	if res.Latency.P95() < 1000 {
		t.Fatalf("p95 latency %v ms; expected severe queueing", res.Latency.P95())
	}
	util := res.Utilization()
	if util[0] < 0.9 {
		t.Fatalf("overloaded edge utilization %v; want ~1", util[0])
	}
}

func TestUtilizationMatchesOfferedLoad(t *testing.T) {
	// Device 0: 10 Hz x 1 unit on a 100-unit/s edge = 10% utilization.
	cfg := simpleConfig()
	cfg.ServiceRate = []float64{100, 100}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(120_000)
	if err != nil {
		t.Fatal(err)
	}
	util := res.Utilization()
	for j := 0; j < 2; j++ {
		if math.Abs(util[j]-0.10) > 0.02 {
			t.Fatalf("edge %d utilization = %v, want ~0.10", j, util[j])
		}
	}
}

func TestWarmupExcluded(t *testing.T) {
	cfg := simpleConfig()
	cfg.WarmupMs = 10_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	// ~10 s of measured time at ~20 req/s total.
	if res.Completed > 250 {
		t.Fatalf("completed %d; warmup apparently counted", res.Completed)
	}
	if res.DurationMs != 10_000 {
		t.Fatalf("DurationMs = %v, want 10000", res.DurationMs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	r1, err := mustRun(simpleConfig(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mustRun(simpleConfig(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Completed != r2.Completed || r1.Latency.Mean() != r2.Latency.Mean() {
		t.Fatal("same-seed runs differ")
	}
	cfg := simpleConfig()
	cfg.Seed = 2
	r3, err := mustRun(cfg, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Completed == r1.Completed && r3.Latency.Mean() == r1.Latency.Mean() {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func mustRun(cfg Config, dur float64) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(dur)
}

func TestReconfigureTakesEffect(t *testing.T) {
	// Start cross-assigned (50 ms uplink), fix at t=15 s; late-window
	// latencies should be dominated by the good mapping.
	cfg := simpleConfig()
	cfg.Assignment = []int{1, 0}
	cfg.WarmupMs = 20_000 // measure only after the fix
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleReconfigureWithPause(15_000, []int{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(40_000)
	if err != nil {
		t.Fatal(err)
	}
	if med := res.Latency.Median(); math.Abs(med-11) > 1 {
		t.Fatalf("median after reconfigure = %v, want ~11", med)
	}
}

func TestReconfigureValidation(t *testing.T) {
	s, err := New(simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleReconfigureWithPause(1, []int{0}, 0); err == nil {
		t.Error("short assignment accepted")
	}
	if err := s.ScheduleReconfigureWithPause(1, []int{0, 9}, 0); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestEdgeFailureDropsAndRecoveryRestores(t *testing.T) {
	cfg := simpleConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleEdgeFailure(5_000, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleEdgeRecovery(10_000, 0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	// Device 0 at 10 Hz for 5 s of failure: ~50 drops.
	if res.Dropped < 20 || res.Dropped > 90 {
		t.Fatalf("Dropped = %d, want ~50", res.Dropped)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed despite recovery")
	}
}

func TestFailureValidation(t *testing.T) {
	s, err := New(simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleEdgeFailure(1, 5); err == nil {
		t.Error("invalid edge failure accepted")
	}
	if err := s.ScheduleEdgeRecovery(1, -1); err == nil {
		t.Error("invalid edge recovery accepted")
	}
}

func TestDeadlineMisses(t *testing.T) {
	cfg := simpleConfig()
	cfg.Devices[0].DeadlineMs = 1 // impossible: uplink alone is 5 ms
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses == 0 {
		t.Fatal("no deadline misses with 1 ms deadline")
	}
	if res.MissRate() <= 0 || res.MissRate() > 1 {
		t.Fatalf("MissRate = %v", res.MissRate())
	}
}

func TestDownlinkMatrixUsed(t *testing.T) {
	cfg := simpleConfig()
	cfg.Devices[0].RateHz = 1
	cfg.Devices[1].RateHz = 1
	cfg.DownlinkMs = [][]float64{{100, 100}, {100, 100}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(30_000)
	if err != nil {
		t.Fatal(err)
	}
	// 5 up + 1 service + 100 down ≈ 106.
	if med := res.Latency.Median(); math.Abs(med-106) > 1 {
		t.Fatalf("median = %v, want ~106", med)
	}
}

func TestInfiniteUplinkDropped(t *testing.T) {
	cfg := simpleConfig()
	cfg.UplinkMs[0][0] = math.Inf(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("unreachable edge produced no drops")
	}
}

func TestMissRateEmpty(t *testing.T) {
	var r Result
	if r.MissRate() != 0 {
		t.Fatal("MissRate of empty result should be 0")
	}
	if len(r.Utilization()) != 0 {
		t.Fatal("Utilization of empty result should be empty")
	}
}
