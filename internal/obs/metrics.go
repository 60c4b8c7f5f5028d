package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; all methods are safe for concurrent use and no-op on a nil
// receiver, so instrumented code never branches on "is observability on".
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 metric (queue depth, utilization).
// The zero value reads 0; methods are concurrency- and nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are ascending
// upper bounds; an observation lands in the first bucket whose bound is
// >= the value, or the implicit overflow bucket past the last bound.
// Methods are concurrency- and nil-safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    Gauge
}

// DefaultLatencyBucketsMs is the standard request-latency bucket layout
// (milliseconds), covering sub-millisecond LAN hops through multi-second
// queueing collapse.
func DefaultLatencyBucketsMs() []float64 {
	return []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
}

// NewHistogram builds a histogram over the given ascending bounds. A nil
// or empty bounds slice yields a single overflow bucket (count+sum only).
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Bucket returns the bucket v falls in over ascending upper bounds: the
// first i with bounds[i] >= v, or len(bounds), the overflow bucket, when
// there is none. It is sort.SearchFloat64s without its closure, with the
// predicate negated rather than flipped to bounds[i] < v, so a NaN,
// which is >= no bound, lands in the overflow bucket. Every histogram
// files its observations through it.
func Bucket(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !(bounds[mid] >= v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[Bucket(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// snapshot captures the histogram's state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts has one
// more entry than Bounds; the last entry counts observations above every
// bound.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Quantile returns an upper-bound estimate of quantile q: the smallest
// bucket bound whose cumulative count covers q, or +Inf when only the
// overflow bucket does. The result is never NaN: an empty histogram
// reports 0 (there is nothing to attribute, and 0 renders sanely in
// dashboards where NaN poisons aggregation), and q is clamped into
// [0, 1] — q <= 0 (or NaN) means the first occupied bucket, q >= 1 the
// last.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Registry is a name-indexed collection of metrics. Metrics are created on
// first use and shared thereafter; lookups on a nil registry return nil
// metrics whose methods no-op, so a registry pointer can be threaded
// through unconditionally.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls reuse the original bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry, shaped
// for JSON serialization (map keys serialize sorted, so output is stable).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var s Snapshot
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// WriteJSON writes an indented JSON snapshot of the registry to w.
func (r *Registry) WriteJSON(w io.Writer) error { //lint:allow nilrecv nil-safe via Snapshot, which guards the receiver
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
