// Package sim is a minimal discrete-event simulation engine: a virtual
// clock plus a time-ordered event queue. The cluster simulator in
// internal/cluster drives all request lifecycles through it, so simulated
// results are fully deterministic and independent of wall-clock speed.
package sim

import (
	"fmt"
	"math"
)

// event is one queued payload. Events are stored by value, so scheduling
// allocates nothing beyond the queue's amortized growth.
type event[P any] struct {
	time    float64 // virtual timestamp (milliseconds)
	seq     int64   // tie-break so equal-time events run in schedule order
	payload P
}

// before orders events by (time, seq). seq is unique and Schedule
// rejects NaN times, so this is a strict total order: the queue pops
// events in one sequence whatever its internal layout.
func (ev *event[P]) before(other *event[P]) bool {
	return ev.time < other.time || (ev.time == other.time && ev.seq < other.seq)
}

// Engine owns the clock and the pending-event queue; each event carries a
// payload of type P that Run hands to its handler. The engine has no
// cancellation: a caller that must retract an event marks the payload
// stale (for example with a generation number) and its handler skips it.
// The zero value is ready to use.
type Engine[P any] struct {
	now     float64
	queue   []event[P] // binary min-heap on (time, seq)
	nextSeq int64
}

// Now returns the current virtual time in milliseconds.
func (e *Engine[P]) Now() float64 { return e.now }

// Schedule queues payload p for virtual time t. Scheduling in the past
// (t < Now) or at NaN panics: that is always a logic error in the caller.
func (e *Engine[P]) Schedule(t float64, p P) {
	if math.IsNaN(t) || t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.push(event[P]{time: t, seq: e.nextSeq, payload: p})
	e.nextSeq++
}

// After queues payload p for delay milliseconds from now.
func (e *Engine[P]) After(delay float64, p P) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.Schedule(e.now+delay, p)
}

// push adds ev to the queue, sifting it up from the last leaf.
func (e *Engine[P]) push(ev event[P]) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
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
func (e *Engine[P]) pop() event[P] {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if right := child + 1; right < n && q[right].before(&q[child]) {
				child = right
			}
			if !q[child].before(&last) {
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

// Run pops events in (time, seq) order and calls handle with each payload
// after advancing the clock to the event's time, until the queue drains
// or the next event is at or past until (exclusive). Events scheduled
// exactly at until do not run; the clock is left at until if the horizon
// was hit, otherwise at the last event handled. Handlers may schedule
// follow-ups, including at the current time.
func (e *Engine[P]) Run(until float64, handle func(P)) {
	for len(e.queue) > 0 {
		if e.queue[0].time >= until {
			e.now = until
			return
		}
		ev := e.pop()
		e.now = ev.time
		handle(ev.payload)
	}
}
