package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
)

// IterEvent is one iteration of an iterative solver: Q-learning episodes
// or tabu/LNS iterations. BestCost is the incumbent (best feasible) total
// cost after the iteration; Feasible reports whether an incumbent exists
// at all (BestCost is +Inf until one does).
type IterEvent struct {
	// Algo names the emitting algorithm ("qlearning", "tabu", ...).
	Algo string
	// Iter is the zero-based iteration index (episode or move).
	Iter int
	// BestCost is the incumbent total cost in ms (+Inf when none).
	BestCost float64
	// Feasible reports whether a feasible incumbent exists.
	Feasible bool
}

// ProgressSink consumes solver iteration events. Implementations must be
// safe for concurrent use when attached to solvers that may run on
// worker-pool goroutines; OnIter must not block for long — it sits on the
// solver's iteration path.
type ProgressSink interface {
	OnIter(IterEvent)
}

// EmitIter sends an iteration event into s, tolerating a nil sink — the
// one-liner solvers call so instrumentation stays invisible when off.
func EmitIter(s ProgressSink, algo string, iter int, bestCost float64, feasible bool) {
	if s == nil {
		return
	}
	s.OnIter(IterEvent{Algo: algo, Iter: iter, BestCost: bestCost, Feasible: feasible})
}

// ProgressFunc adapts a function to the ProgressSink interface.
type ProgressFunc func(IterEvent)

// OnIter implements ProgressSink.
func (f ProgressFunc) OnIter(ev IterEvent) { f(ev) }

// MultiProgress fans each iteration event out to every non-nil sink.
func MultiProgress(sinks ...ProgressSink) ProgressSink {
	kept := make([]ProgressSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return ProgressFunc(func(ev IterEvent) {
		for _, s := range kept {
			s.OnIter(ev)
		}
	})
}

// EventProgress adapts an event Sink into a ProgressSink: every iteration
// becomes an Event of kind "iter" with fields algo, iter, feasible and —
// only once an incumbent exists, since +Inf is not JSON-serializable —
// best_cost_ms.
func EventProgress(s Sink) ProgressSink {
	if s == nil {
		return nil
	}
	return ProgressFunc(func(ev IterEvent) {
		fields := map[string]interface{}{
			"algo":     ev.Algo,
			"iter":     ev.Iter,
			"feasible": ev.Feasible,
		}
		if ev.Feasible && !math.IsInf(ev.BestCost, 0) && !math.IsNaN(ev.BestCost) {
			fields["best_cost_ms"] = ev.BestCost
		}
		s.Emit(Event{Kind: "iter", Fields: fields})
	})
}

// MetricsProgress mirrors iteration events into a registry: counter
// "solver.<algo>.iters" counts iterations, gauge "solver.<algo>.best_cost_ms"
// tracks the incumbent (left untouched until one exists).
func MetricsProgress(r *Registry) ProgressSink {
	if r == nil {
		return nil
	}
	return ProgressFunc(func(ev IterEvent) {
		r.Counter("solver." + ev.Algo + ".iters").Inc()
		if ev.Feasible && !math.IsInf(ev.BestCost, 0) && !math.IsNaN(ev.BestCost) {
			r.Gauge("solver." + ev.Algo + ".best_cost_ms").Set(ev.BestCost)
		}
	})
}

// ProgressWriter returns a ProgressSink that prints one human-readable
// line to w every time an algorithm's incumbent improves (and on the first
// iteration), keeping terminal progress output proportional to learning
// progress rather than iteration count. Safe for concurrent use.
func ProgressWriter(w io.Writer) ProgressSink {
	var mu sync.Mutex
	best := make(map[string]float64)
	return ProgressFunc(func(ev IterEvent) {
		mu.Lock()
		defer mu.Unlock()
		prev, seen := best[ev.Algo]
		improved := ev.Feasible && (!seen || ev.BestCost < prev-1e-12)
		if improved {
			best[ev.Algo] = ev.BestCost
		}
		if !improved && seen {
			return
		}
		if !seen && !ev.Feasible {
			best[ev.Algo] = math.Inf(1)
			fmt.Fprintf(w, "%s iter %d: no feasible incumbent yet\n", ev.Algo, ev.Iter)
			return
		}
		fmt.Fprintf(w, "%s iter %d: best %.3f ms\n", ev.Algo, ev.Iter, ev.BestCost)
	})
}
