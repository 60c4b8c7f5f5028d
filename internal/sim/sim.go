// Package sim is a minimal discrete-event simulation engine: a virtual
// clock plus a time-ordered event queue. The cluster simulator in
// internal/cluster drives all request lifecycles through it, so simulated
// results are fully deterministic and independent of wall-clock speed.
package sim

import (
	"fmt"
	"math"
)

// Event is a callback scheduled at a virtual time.
type Event struct {
	// Time is the virtual timestamp (milliseconds) at which Fn runs.
	Time float64
	// Fn is invoked with the engine so handlers can schedule follow-ups.
	Fn func(*Engine)

	seq  int64 // tie-break so equal-time events run in schedule order
	dead bool  // cancelled
}

// before orders events by (Time, seq). seq is unique and Schedule
// rejects NaN times, so this is a strict total order: the queue pops
// events in one sequence whatever its internal layout.
func (ev *Event) before(other *Event) bool {
	return ev.Time < other.Time || (ev.Time == other.Time && ev.seq < other.seq)
}

// Engine owns the clock and the pending-event queue. The zero value is
// ready to use.
type Engine struct {
	now     float64
	queue   []*Event // binary min-heap on (Time, seq)
	nextSeq int64
	stopped bool
	// processed counts executed events, exposed for tests and progress
	// reporting.
	processed int64
}

// Now returns the current virtual time in milliseconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int64 { return e.processed }

// Pending returns the number of events still queued, not counting
// cancelled ones that have not been drained yet.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}

// Schedule queues fn to run at absolute virtual time t and returns a handle
// that can cancel it. Scheduling in the past (t < Now) panics: that is
// always a logic error in the caller.
func (e *Engine) Schedule(t float64, fn func(*Engine)) *Event {
	if math.IsNaN(t) || t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	ev := &Event{Time: t, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	e.push(ev)
	return ev
}

// push adds ev to the queue, sifting it up from the last leaf.
func (e *Engine) push(ev *Event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.queue = q
}

// pop removes and returns the queue's first event, sifting the last leaf
// down from the root. The queue must not be empty.
func (e *Engine) pop() *Event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if right := child + 1; right < n && q[right].before(q[child]) {
				child = right
			}
			if !q[child].before(last) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = last
	}
	e.queue = q
	return top
}

// After queues fn to run delay milliseconds from now.
func (e *Engine) After(delay float64, fn func(*Engine)) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.Schedule(e.now+delay, fn)
}

// Cancel marks ev so it will not run. Cancelling an already-run or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil {
		ev.dead = true
	}
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.dead {
			continue
		}
		e.now = ev.Time
		e.processed++
		ev.Fn(e)
		return true
	}
	return false
}

// Run executes events until the queue drains, Stop is called, or the clock
// passes until (exclusive). Events scheduled exactly at until do not run;
// the clock is left at until if the horizon was hit, otherwise at the last
// executed event. It returns the number of events executed.
func (e *Engine) Run(until float64) int64 {
	e.stopped = false
	start := e.processed
	for !e.stopped {
		// Peek for horizon check.
		var next *Event
		for len(e.queue) > 0 {
			if e.queue[0].dead {
				e.pop()
				continue
			}
			next = e.queue[0]
			break
		}
		if next == nil {
			break
		}
		if next.Time >= until {
			e.now = until
			break
		}
		e.Step()
	}
	return e.processed - start
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() int64 {
	return e.Run(math.Inf(1))
}
