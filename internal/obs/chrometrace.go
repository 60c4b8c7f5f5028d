package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"taccc/internal/jsonx"
)

// Chrome trace-event export: renders pipeline spans in the JSON Object
// Format understood by Perfetto and chrome://tracing. Every span becomes
// one "X" (complete) event with microsecond timestamps; spans carrying a
// "worker" attribute land on their own thread row (tid 2+worker, named
// "worker N") so parallel shards render as a per-worker timeline, while
// ordinary phases share the "pipeline" thread. Resource samples become
// "C" (counter) events, which Perfetto renders as per-name counter
// tracks — heap and goroutine curves lined up under the phase spans.
// Metadata ("M") events name the process and threads.

// ChromeEvent is one trace-event record. Only the members this exporter
// writes are modeled; ReadChromeTrace rejects anything else.
type ChromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  *float64               `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

const (
	chromePid         = 1
	chromePipelineTid = 1
	chromeWorkerTid0  = 2
)

// chromeTid maps a span to its thread row: worker-shard spans get a
// per-worker tid, everything else shares the pipeline row.
func chromeTid(sp Span) int {
	if w, ok := sp.AttrNum("worker"); ok && w == math.Trunc(w) && w >= 0 {
		return chromeWorkerTid0 + int(w)
	}
	return chromePipelineTid
}

// CounterSample is one reading of a counter track: the values of every
// series of the named track at one instant. The sysmon sampler converts
// resource samples into these (one track per resource family — heap,
// goroutines, RSS); the exporter turns each into a Chrome "C" event so
// Perfetto draws the curves under the phase spans. TsMs must come from
// the same Clock as the spans it accompanies, or the curves will not
// line up.
type CounterSample struct {
	Name   string
	TsMs   float64
	Values map[string]float64
}

// ChromeTraceFromSpans builds the exportable trace object from spans
// plus optional counter samples. Events are sorted by (ts, tid, name) so
// the output is stable regardless of span emission order (children end
// before parents; shards end in worker-pool order).
func ChromeTraceFromSpans(spans []Span, counters ...CounterSample) ChromeTrace {
	events := make([]ChromeEvent, 0, len(spans)+len(counters)+4)
	tids := map[int]bool{}
	for _, sp := range spans {
		tid := chromeTid(sp)
		tids[tid] = true
		args := map[string]interface{}{
			"trace": uint64(sp.Trace),
			"span":  uint64(sp.ID),
		}
		if sp.Parent != 0 {
			args["parent"] = uint64(sp.Parent)
		}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		dur := sp.DurationMs() * 1000
		events = append(events, ChromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   sp.StartMs * 1000,
			Dur:  &dur,
			Pid:  chromePid,
			Tid:  tid,
			Args: args,
		})
	}
	for _, c := range counters {
		args := make(map[string]interface{}, len(c.Values))
		for k, v := range c.Values {
			args[k] = v
		}
		events = append(events, ChromeEvent{
			Name: c.Name,
			Ph:   "C",
			Ts:   c.TsMs * 1000,
			Pid:  chromePid,
			Tid:  chromePipelineTid,
			Args: args,
		})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Name < events[j].Name
	})

	meta := []ChromeEvent{{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: chromePipelineTid,
		Args: map[string]interface{}{"name": "taccc"},
	}}
	sortedTids := make([]int, 0, len(tids))
	for tid := range tids {
		sortedTids = append(sortedTids, tid)
	}
	sort.Ints(sortedTids)
	for _, tid := range sortedTids {
		name := "pipeline"
		if tid >= chromeWorkerTid0 {
			name = fmt.Sprintf("worker %d", tid-chromeWorkerTid0)
		}
		meta = append(meta, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
			Args: map[string]interface{}{"name": name},
		})
	}
	return ChromeTrace{TraceEvents: append(meta, events...), DisplayTimeUnit: "ms"}
}

// WriteChromeTrace exports spans (plus optional resource counter
// samples) as Chrome trace-event JSON, directly loadable in Perfetto or
// chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []Span, counters ...CounterSample) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ChromeTraceFromSpans(spans, counters...))
}

// ReadChromeTrace is the strict decoder for files written by
// WriteChromeTrace (the CI trace-smoke gate validates exports through
// it). It reads through jsonx.Decode, so a member name that is not
// exactly one of ChromeTrace's or ChromeEvent's (a mis-cased "NAME"
// included), a member given twice and anything but whitespace after the
// JSON object are errors; so are unsupported phase types and malformed
// events, with the offending event index in the message.
func ReadChromeTrace(r io.Reader) (ChromeTrace, error) {
	var tr ChromeTrace
	if err := jsonx.Decode(r, &tr); err != nil {
		return ChromeTrace{}, fmt.Errorf("chrome trace: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return ChromeTrace{}, fmt.Errorf("chrome trace: empty traceEvents array")
	}
	for i, ev := range tr.TraceEvents {
		if ev.Name == "" {
			return ChromeTrace{}, fmt.Errorf("chrome trace: event %d: empty name", i)
		}
		if ev.Pid <= 0 || ev.Tid <= 0 {
			return ChromeTrace{}, fmt.Errorf("chrome trace: event %d (%s): pid/tid must be positive", i, ev.Name)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				return ChromeTrace{}, fmt.Errorf("chrome trace: event %d (%s): complete event missing dur", i, ev.Name)
			}
			if *ev.Dur < 0 || math.IsNaN(*ev.Dur) || math.IsInf(*ev.Dur, 0) {
				return ChromeTrace{}, fmt.Errorf("chrome trace: event %d (%s): invalid dur %v", i, ev.Name, *ev.Dur)
			}
			if math.IsNaN(ev.Ts) || math.IsInf(ev.Ts, 0) {
				return ChromeTrace{}, fmt.Errorf("chrome trace: event %d (%s): invalid ts %v", i, ev.Name, ev.Ts)
			}
		case "C":
			if math.IsNaN(ev.Ts) || math.IsInf(ev.Ts, 0) {
				return ChromeTrace{}, fmt.Errorf("chrome trace: event %d (%s): invalid ts %v", i, ev.Name, ev.Ts)
			}
			if len(ev.Args) == 0 {
				return ChromeTrace{}, fmt.Errorf("chrome trace: event %d (%s): counter event has no series", i, ev.Name)
			}
			keys := make([]string, 0, len(ev.Args))
			for k := range ev.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				v, ok := ev.Args[k].(float64)
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					return ChromeTrace{}, fmt.Errorf("chrome trace: event %d (%s): counter series %q is not a finite number", i, ev.Name, k)
				}
			}
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				return ChromeTrace{}, fmt.Errorf("chrome trace: event %d: unsupported metadata %q", i, ev.Name)
			}
			if _, ok := ev.Args["name"].(string); !ok {
				return ChromeTrace{}, fmt.Errorf("chrome trace: event %d (%s): metadata missing args.name", i, ev.Name)
			}
		default:
			return ChromeTrace{}, fmt.Errorf("chrome trace: event %d (%s): unsupported phase %q", i, ev.Name, ev.Ph)
		}
	}
	return tr, nil
}
