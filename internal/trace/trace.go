// Package trace analyzes the cluster simulator's per-request records: it
// rebuilds them from the request spans of an event stream (a run
// archive's events.jsonl), then summarizes them and buckets them into a
// latency-over-time series. Spans are the simulator's one per-request
// record; this package is their offline reader.
package trace

import (
	"fmt"
	"sort"

	"taccc/internal/cluster"
	"taccc/internal/obs"
	"taccc/internal/stats"
)

// RequestRecord is one traced request's lifecycle, rebuilt from its root
// "request" span.
type RequestRecord struct {
	// Device and Edge identify the request's endpoints.
	Device int
	Edge   int
	// SentAtMs and DoneAtMs bound the lifecycle (DoneAtMs is the drop
	// time for dropped requests).
	SentAtMs float64
	DoneAtMs float64
	// LatencyMs is end-to-end latency (0 for drops).
	LatencyMs float64
	// Outcome classifies the ending.
	Outcome cluster.Outcome
}

// Summary aggregates a trace.
type Summary struct {
	Completed int
	Missed    int
	Dropped   int
	// Latency pools the completed requests' latencies.
	Latency stats.Sample
	// PerEdge counts completed requests per edge index.
	PerEdge map[int]int
}

// Summarize computes aggregate statistics over records.
func Summarize(records []RequestRecord) *Summary {
	s := &Summary{PerEdge: make(map[int]int)}
	for _, r := range records {
		switch r.Outcome {
		case cluster.OutcomeDropped:
			s.Dropped++
		case cluster.OutcomeMissed:
			s.Missed++
			s.Completed++
			s.Latency.Add(r.LatencyMs)
			s.PerEdge[r.Edge]++
		default:
			s.Completed++
			s.Latency.Add(r.LatencyMs)
			s.PerEdge[r.Edge]++
		}
	}
	return s
}

// MissRate returns misses / completed (0 when empty).
func (s *Summary) MissRate() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Completed)
}

// WindowPoint is one bucket of a latency time series.
type WindowPoint struct {
	// StartMs is the bucket's inclusive start time.
	StartMs float64
	// Completed and Dropped count requests finishing in the bucket.
	Completed int
	Dropped   int
	// MeanLatencyMs and P95Ms summarize completed-request latency.
	MeanLatencyMs float64
	P95Ms         float64
}

// TimeSeries buckets the trace by completion time into windows of
// windowMs, producing the "latency over time" view of a run. Records are
// bucketed by DoneAtMs; buckets are returned in time order, empty buckets
// omitted.
func TimeSeries(records []RequestRecord, windowMs float64) ([]WindowPoint, error) {
	if windowMs <= 0 {
		return nil, fmt.Errorf("trace: window must be positive, got %v", windowMs)
	}
	type bucket struct {
		completed int
		dropped   int
		lat       stats.Sample
	}
	buckets := make(map[int]*bucket)
	for _, r := range records {
		idx := int(r.DoneAtMs / windowMs)
		b := buckets[idx]
		if b == nil {
			b = &bucket{}
			buckets[idx] = b
		}
		if r.Outcome == cluster.OutcomeDropped {
			b.dropped++
		} else {
			b.completed++
			b.lat.Add(r.LatencyMs)
		}
	}
	idxs := make([]int, 0, len(buckets))
	for i := range buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]WindowPoint, 0, len(idxs))
	for _, i := range idxs {
		b := buckets[i]
		wp := WindowPoint{
			StartMs:   float64(i) * windowMs,
			Completed: b.completed,
			Dropped:   b.dropped,
		}
		if b.completed > 0 {
			wp.MeanLatencyMs = b.lat.Mean()
			wp.P95Ms = b.lat.P95()
		}
		out = append(out, wp)
	}
	return out, nil
}

// FromSpanEvents reconstructs per-request records from a structured
// event stream: every root "request" span, as the simulator emits with
// cluster.Config.Spans and run archives persist in events.jsonl, becomes
// one record. Requests dropped at the device are never traced, so they
// have no record. Span events of other kinds and request phase children
// (uplink/queue/service/downlink) are ignored; a request span with a
// malformed payload is an error, not a silent skip.
func FromSpanEvents(events []obs.Event) ([]RequestRecord, error) {
	var out []RequestRecord
	for _, sp := range obs.SpansFromEvents(events) {
		if sp.Name != "request" || sp.Parent != 0 {
			continue
		}
		dev, okD := sp.AttrNum("device")
		edge, okE := sp.AttrNum("edge")
		outcome, okO := sp.AttrStr("outcome")
		if !okD || !okE || !okO {
			return nil, fmt.Errorf("trace: request span in trace %d missing device/edge/outcome attrs", sp.Trace)
		}
		rec := RequestRecord{
			Device:   int(dev),
			Edge:     int(edge),
			SentAtMs: sp.StartMs,
			DoneAtMs: sp.EndMs,
		}
		switch o := cluster.Outcome(outcome); o {
		case cluster.OutcomeOK, cluster.OutcomeMissed:
			rec.Outcome = o
			rec.LatencyMs = sp.EndMs - sp.StartMs
		case cluster.OutcomeDropped:
			// Drops record their drop time but no latency.
			rec.Outcome = o
		default:
			return nil, fmt.Errorf("trace: request span in trace %d has unknown outcome %q", sp.Trace, outcome)
		}
		out = append(out, rec)
	}
	return out, nil
}
