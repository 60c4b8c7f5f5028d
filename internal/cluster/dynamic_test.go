package cluster

import (
	"math"
	"testing"
)

func TestScheduleUplinkUpdateTakesEffect(t *testing.T) {
	cfg := simpleConfig()
	cfg.Devices[0].RateHz = 2
	cfg.Devices[1].RateHz = 2
	cfg.WarmupMs = 10_000 // measure after the swap
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At t=5 s the network "moves": both devices now see 100 ms uplinks.
	slow := [][]float64{{100, 100}, {100, 100}}
	if err := s.ScheduleUplinkUpdate(5_000, slow, slow); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(40_000)
	if err != nil {
		t.Fatal(err)
	}
	// Post-swap latency ~ 100 + 1 + 100 = 201.
	if med := res.Latency.Median(); math.Abs(med-201) > 2 {
		t.Fatalf("median after uplink update = %v, want ~201", med)
	}
}

func TestScheduleUplinkUpdateValidation(t *testing.T) {
	s, err := New(simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleUplinkUpdate(1, [][]float64{{1, 1}}, nil); err == nil {
		t.Error("short uplink accepted")
	}
	if err := s.ScheduleUplinkUpdate(1, [][]float64{{1}, {1}}, nil); err == nil {
		t.Error("narrow uplink accepted")
	}
	ok := [][]float64{{1, 1}, {1, 1}}
	if err := s.ScheduleUplinkUpdate(1, ok, [][]float64{{1}, {1}}); err == nil {
		t.Error("narrow downlink accepted")
	}
	inf := math.Inf(1)
	for _, bad := range []struct {
		name             string
		uplink, downlink [][]float64
	}{
		{"NaN uplink", [][]float64{{1, math.NaN()}, {1, 1}}, nil},
		{"negative uplink", [][]float64{{1, 1}, {-5, 1}}, nil},
		{"NaN downlink", ok, [][]float64{{1, 1}, {math.NaN(), 1}}},
		{"negative downlink", ok, [][]float64{{1, -1}, {1, 1}}},
		{"+Inf downlink behind a finite uplink", ok, [][]float64{{1, inf}, {1, 1}}},
	} {
		if err := s.ScheduleUplinkUpdate(1, bad.uplink, bad.downlink); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
	if err := s.ScheduleUplinkUpdate(1, ok, nil); err != nil {
		t.Fatal(err)
	}
	// An unreachable pair (+Inf both ways, or +Inf uplink mirrored) stays
	// the supported "drop at the device" case.
	unreachable := [][]float64{{1, inf}, {1, 1}}
	if err := s.ScheduleUplinkUpdate(2, unreachable, nil); err != nil {
		t.Errorf("+Inf uplink rejected: %v", err)
	}
	if err := s.ScheduleUplinkUpdate(3, unreachable, unreachable); err != nil {
		t.Errorf("+Inf uplink and downlink rejected: %v", err)
	}
}

func TestReconfigureWithPauseSilencesMigrants(t *testing.T) {
	cfg := simpleConfig() // both devices at 10 Hz
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Swap both devices at t=10 s with a 5 s migration pause: each loses
	// ~50 requests.
	if err := s.ScheduleReconfigureWithPause(10_000, []int{1, 0}, 5_000); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(30_000)
	if err != nil {
		t.Fatal(err)
	}
	// Without pause: ~600 requests. With two 5 s pauses: ~500.
	if res.Completed > 560 || res.Completed < 420 {
		t.Fatalf("Completed = %d, want ~500 with migration pauses", res.Completed)
	}
	// After resume, latency reflects the swapped (worse) mapping.
	if res.Latency.P95() < 100 {
		t.Fatalf("p95 = %v; expected the 50 ms uplinks post-swap to dominate", res.Latency.P95())
	}
}

func TestReconfigureWithPauseZeroPause(t *testing.T) {
	cfg := simpleConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleReconfigureWithPause(5_000, []int{1, 0}, 0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	// Zero pause: throughput unaffected (~400).
	if res.Completed < 340 {
		t.Fatalf("Completed = %d; zero-pause migration should not lose traffic", res.Completed)
	}
}

func TestReconfigureWithPauseValidation(t *testing.T) {
	s, err := New(simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleReconfigureWithPause(1, []int{0}, 10); err == nil {
		t.Error("short assignment accepted")
	}
	if err := s.ScheduleReconfigureWithPause(1, []int{0, 9}, 10); err == nil {
		t.Error("bad edge accepted")
	}
	for _, pause := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := s.ScheduleReconfigureWithPause(1, []int{0, 1}, pause); err == nil {
			t.Errorf("pause %v accepted", pause)
		}
	}
}
