package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/obs/slo"
	"taccc/internal/workload"
)

// goldenSimConfig is a 12-device, 3-edge deployment near 75% utilization:
// distinct per-pair delays, mixed deadlines (some tight enough to miss),
// one bursty device per five and a warmup, so every exit path and both
// sides of the warmup cut are exercised.
func goldenSimConfig() Config {
	const n, m = 12, 3
	cfg := Config{ServiceRate: []float64{900, 1100, 1000}, WarmupMs: 150, Seed: 7}
	for i := 0; i < n; i++ {
		up := make([]float64, m)
		down := make([]float64, m)
		for j := range up {
			up[j] = 1 + float64((i*7+j*5)%11)*0.75
			down[j] = 0.5 + float64((i*3+j*4)%7)*0.5
		}
		cfg.UplinkMs = append(cfg.UplinkMs, up)
		cfg.DownlinkMs = append(cfg.DownlinkMs, down)
		cfg.Devices = append(cfg.Devices, workload.Device{
			ID:           i,
			RateHz:       80 + float64(i%4)*30,
			ComputeUnits: 1 + float64(i%3)*0.5,
			DeadlineMs:   9 + float64(i%5)*2,
			Bursty:       i%5 == 0,
		})
		cfg.Assignment = append(cfg.Assignment, i%m)
	}
	return cfg
}

// goldenSims are the pinned configurations. Each runs with every output
// plane attached; schedule, when set, adds runtime events before Run.
var goldenSims = []struct {
	name     string
	mutate   func(*Config)
	schedule func(*Simulator) error
}{
	{"fifo-single", func(c *Config) { c.MaxQueue = 5 }, nil},
	{"ps", func(c *Config) {
		c.Discipline = DisciplinePS
		c.MaxQueue = 6
	}, nil},
	{"fifo-failure", func(c *Config) { c.DownlinkMs = nil }, func(s *Simulator) error {
		if err := s.ScheduleEdgeFailure(500, 1); err != nil {
			return err
		}
		return s.ScheduleEdgeRecovery(900, 1)
	}},
	{"ps-failure", func(c *Config) { c.Discipline = DisciplinePS }, func(s *Simulator) error {
		if err := s.ScheduleEdgeFailure(400, 2); err != nil {
			return err
		}
		return s.ScheduleEdgeRecovery(1000, 2)
	}},
	{"jitter-sampled", func(c *Config) {
		c.JitterSigma = 0.4
		c.TraceSampleRate = 0.3
		c.MaxQueue = 8
	}, func(s *Simulator) error {
		// Halfway through, uplinks slow by half and the downlink
		// starts mirroring them.
		up := make([][]float64, len(s.cfg.UplinkMs))
		for i, row := range s.cfg.UplinkMs {
			for _, d := range row {
				up[i] = append(up[i], d*1.5)
			}
		}
		return s.ScheduleUplinkUpdate(700, up, nil)
	}},
	{"unreachable", func(c *Config) {
		// Device 4's edge and device 7's edge are unreachable in both
		// directions: their arrivals drop at the device.
		c.UplinkMs[4][c.Assignment[4]] = math.Inf(1)
		c.DownlinkMs[4][c.Assignment[4]] = math.Inf(1)
		c.UplinkMs[7][c.Assignment[7]] = math.Inf(1)
		c.DownlinkMs[7][c.Assignment[7]] = math.Inf(1)
		c.TraceSampleRate = 0.5
	}, func(s *Simulator) error {
		// Move device 4 to a reachable edge partway through.
		of := append([]int(nil), s.cfg.Assignment...)
		of[4] = (of[4] + 1) % len(s.cfg.ServiceRate)
		return s.ScheduleReconfigureWithPause(800, of, 0)
	}},
}

// goldenSimHashes pins every output plane of each goldenSims run: Result
// (counts, per-edge busy time and peak queue, every latency's bits), the
// span JSONL stream, the metrics snapshot, and the SLO JSONL stream plus
// the SLO tracker's own registry. fifo-single was pinned on the simulator
// that still had multi-server edges, the others on the one before its
// request exits were merged into one.
var goldenSimHashes = map[string][4]string{
	"fifo-single":    {"6f16cb2b3e96e603", "ea24759a104fabbc", "e00465b3a19b75a9", "40f1849334f2b022"},
	"ps":             {"98700e02c8f4095a", "5b162815ff64af40", "590b0361c7332e2d", "37dcb5bd0fadd89e"},
	"fifo-failure":   {"14d47df03dc96f97", "070da7ec5f3e2d9f", "faa2da91289ee8e3", "49c7a55e0384f589"},
	"ps-failure":     {"0815b698646be5c8", "eedcdeaade7ef71e", "3d4a05daee729354", "c1acb4ac5ea094b2"},
	"jitter-sampled": {"58f53a95a534bc0f", "1d2f3182d6407824", "02a4cfdcb7c83799", "ae8cf896fed275ae"},
	"unreachable":    {"9dffb82b326e6d4e", "554730c52c99eaad", "784a2ebd39882d8a", "83b636bd74fbcde7"},
}

// simStreams runs one golden configuration with all planes on and returns
// the FNV-64a hash of each output, in goldenSimHashes order.
func simStreams(t *testing.T, mutate func(*Config), schedule func(*Simulator) error) [4]string {
	t.Helper()
	cfg := goldenSimConfig()
	mutate(&cfg)
	var spans, sloEvents bytes.Buffer
	spanSink := obs.NewJSONL(&spans)
	sloSink := obs.NewJSONL(&sloEvents)
	reg, sloReg := obs.NewRegistry(), obs.NewRegistry()
	objs, err := slo.ParseObjectives("p95<=12@95,queue.p99<=4@90,miss<=0.02@95")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := slo.New(slo.Config{WindowMs: 100, Objectives: objs, Sink: sloSink, Metrics: sloReg})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics, cfg.Spans, cfg.SLO = reg, spanSink, tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if schedule != nil {
		if err := schedule(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run(1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := spanSink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sloSink.Close(); err != nil {
		t.Fatal(err)
	}
	var result bytes.Buffer
	fmt.Fprintf(&result, "%d %d %d %x %v\n", res.Completed, res.DeadlineMisses, res.Dropped, math.Float64bits(res.DurationMs), res.PeakQueue)
	for _, b := range res.EdgeBusyMs {
		fmt.Fprintf(&result, "%x ", math.Float64bits(b))
	}
	for _, v := range res.Latency.Values() {
		fmt.Fprintf(&result, "%x ", math.Float64bits(v))
	}
	var metrics, sloAll bytes.Buffer
	if err := reg.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	sloAll.Write(sloEvents.Bytes())
	if err := sloReg.WriteJSON(&sloAll); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || spans.Len() == 0 || sloEvents.Len() == 0 {
		t.Fatalf("degenerate run: %d completions, %d span bytes, %d SLO bytes",
			res.Completed, spans.Len(), sloEvents.Len())
	}
	var out [4]string
	for k, b := range [][]byte{result.Bytes(), spans.Bytes(), metrics.Bytes(), sloAll.Bytes()} {
		h := fnv.New64a()
		h.Write(b)
		out[k] = fmt.Sprintf("%016x", h.Sum64())
	}
	return out
}

// TestSimulatorGoldenStreams replays each golden configuration and
// requires every output plane to hash to its pinned value. A diff names
// the plane whose bytes changed.
func TestSimulatorGoldenStreams(t *testing.T) {
	planes := [4]string{"result", "spans", "metrics", "slo"}
	for _, g := range goldenSims {
		g := g
		t.Run(g.name, func(t *testing.T) {
			got := simStreams(t, g.mutate, g.schedule)
			want, ok := goldenSimHashes[g.name]
			if !ok {
				t.Fatalf("no golden hashes; got %q", got)
			}
			for k := range planes {
				if got[k] != want[k] {
					t.Errorf("%s stream hash %s, golden %s", planes[k], got[k], want[k])
				}
			}
		})
	}
}
