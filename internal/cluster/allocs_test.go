package cluster

import (
	"testing"

	"taccc/internal/workload"
)

// allocConfig is a 100-device, 10-edge deployment at 70% utilization with
// every output plane off: mixed delays, rates and demands, and one bursty
// device in five.
func allocConfig(d Discipline) Config {
	const n, m = 100, 10
	cfg := Config{Discipline: d, WarmupMs: 1000, Seed: 3}
	load := make([]float64, m)
	for i := 0; i < n; i++ {
		up := make([]float64, m)
		for j := range up {
			up[j] = 1 + float64((i*7+j*3)%13)*0.5
		}
		dev := workload.Device{
			ID:           i,
			RateHz:       5 + float64(i%4)*5,
			ComputeUnits: 1 + float64(i%3)*0.5,
			DeadlineMs:   20,
			Bursty:       i%5 == 0,
		}
		cfg.UplinkMs = append(cfg.UplinkMs, up)
		cfg.Devices = append(cfg.Devices, dev)
		cfg.Assignment = append(cfg.Assignment, i%m)
		load[i%m] += dev.Load()
	}
	for _, l := range load {
		cfg.ServiceRate = append(cfg.ServiceRate, l/0.7)
	}
	return cfg
}

// TestRunAllocsDoNotScaleWithHorizon pins the event loop's memory
// behaviour: events are values in the engine's heap and requests live in
// a slab whose slots are reused, so a run ten times longer allocates
// only the amortized growth of its slices (the latency sample above all),
// not a heap event or closure per request.
func TestRunAllocsDoNotScaleWithHorizon(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	for _, tc := range []struct {
		name string
		d    Discipline
	}{{"fifo", DisciplineFIFO}, {"ps", DisciplinePS}} {
		t.Run(tc.name, func(t *testing.T) {
			var requests, slots, queued int
			allocs := func(durationMs float64) float64 {
				return testing.AllocsPerRun(2, func() {
					s, err := New(allocConfig(tc.d))
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run(durationMs)
					if err != nil {
						t.Fatal(err)
					}
					requests, slots, queued = res.Completed+res.Dropped, len(s.reqs), 0
					for _, q := range res.PeakQueue {
						queued += q
					}
				})
			}
			short := allocs(10_000)
			long := allocs(100_000)
			t.Logf("10 s: %.0f allocations; 100 s: %.0f allocations, %d requests, %d slab slots", short, long, requests, slots)
			if extra := long - short; extra >= 64 {
				t.Fatalf("a 100 s run allocates %.0f times more than a 10 s run (%d requests measured)", extra, requests)
			}
			// The slab reuses freed slots, so it holds only the requests
			// alive at once: at most the edges' peak queues plus those
			// still on their uplink, not one slot per request.
			if slots > queued+len(allocConfig(tc.d).Devices) {
				t.Fatalf("request slab grew to %d slots over %d requests (peak queues sum to %d)", slots, requests, queued)
			}
		})
	}
}
