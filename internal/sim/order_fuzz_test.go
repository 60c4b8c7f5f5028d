package sim

import (
	"math"
	"reflect"
	"testing"
)

// engineOps is the surface FuzzEngineOrder drives. The engine under test
// and the reference both implement it, over event handles numbered in
// scheduling order.
type engineOps interface {
	now() float64
	at(t float64, fire func())
	after(delay float64, fire func())
	cancel(h int)
	stop()
	run(until float64)
	processed() int64
	pending() int
}

// realEngine adapts Engine to engineOps.
type realEngine struct {
	e       Engine
	handles []*Event
}

func (r *realEngine) now() float64 { return r.e.Now() }
func (r *realEngine) at(t float64, fire func()) {
	r.handles = append(r.handles, r.e.Schedule(t, func(*Engine) { fire() }))
}
func (r *realEngine) after(delay float64, fire func()) {
	r.handles = append(r.handles, r.e.After(delay, func(*Engine) { fire() }))
}
func (r *realEngine) cancel(h int)      { r.e.Cancel(r.handles[h]) }
func (r *realEngine) stop()             { r.e.Stop() }
func (r *realEngine) run(until float64) { r.e.Run(until) }
func (r *realEngine) processed() int64  { return r.e.Processed() }
func (r *realEngine) pending() int      { return r.e.Pending() }

// refEngine is the naive engine FuzzEngineOrder checks Engine against:
// it keeps every event in scheduling order and runs the live one with
// the smallest (time, seq), found by a linear scan.
type refEngine struct {
	clock   float64
	events  []refEvent
	ran     int64
	stopped bool
}

type refEvent struct {
	t          float64
	fire       func()
	dead, done bool
}

func (r *refEngine) now() float64 { return r.clock }
func (r *refEngine) at(t float64, fire func()) {
	r.events = append(r.events, refEvent{t: t, fire: fire})
}
func (r *refEngine) after(delay float64, fire func()) { r.at(r.clock+delay, fire) }
func (r *refEngine) cancel(h int)                     { r.events[h].dead = true }
func (r *refEngine) stop()                            { r.stopped = true }
func (r *refEngine) processed() int64                 { return r.ran }

// next returns the index of the first live event, or -1. Scanning in
// scheduling order with a strict comparison breaks time ties by seq.
func (r *refEngine) next() int {
	best := -1
	for i, ev := range r.events {
		if !ev.dead && !ev.done && (best < 0 || ev.t < r.events[best].t) {
			best = i
		}
	}
	return best
}

func (r *refEngine) run(until float64) {
	r.stopped = false
	for !r.stopped {
		i := r.next()
		if i < 0 {
			return
		}
		if r.events[i].t >= until {
			r.clock = until
			return
		}
		r.events[i].done = true
		r.clock = r.events[i].t
		r.ran++
		r.events[i].fire()
	}
}

func (r *refEngine) pending() int {
	n := 0
	for _, ev := range r.events {
		if !ev.dead && !ev.done {
			n++
		}
	}
	return n
}

// engineOp is one decoded operation of an engine program.
type engineOp struct {
	kind byte    // opAt, opAfter, opCancel or opStop
	arg  float64 // absolute time (opAt) or delay (opAfter), on a coarse grid so times tie
	ref  int     // opCancel: the target, modulo the events scheduled so far
	next int     // scheduling ops: where the new event's handler program starts
}

const (
	opAt = iota
	opAfter
	opCancel
	opStop
)

const (
	// setupOps is how many leading ops run before the first Run.
	setupOps = 8
	// handlerOps is how many ops each event's handler runs.
	handlerOps = 2
	// maxEvents caps the events one program schedules, so every
	// program terminates.
	maxEvents = 200
)

// engineProgram replays decoded ops against one engine, logging the id
// (scheduling index) of each event as it runs.
type engineProgram struct {
	ops   []engineOp
	eng   engineOps
	order []int
	n     int // events scheduled so far
}

func (p *engineProgram) exec(o engineOp) {
	switch o.kind {
	case opAt, opAfter:
		if p.n >= maxEvents {
			return
		}
		id := p.n
		p.n++
		fire := func() {
			p.order = append(p.order, id)
			for k := 0; k < handlerOps; k++ {
				p.exec(p.ops[(o.next+k)%len(p.ops)])
			}
		}
		if o.kind == opAfter {
			p.eng.after(o.arg, fire)
		} else {
			p.eng.at(math.Max(o.arg, p.eng.now()), fire)
		}
	case opCancel:
		if p.n > 0 {
			p.eng.cancel(o.ref % p.n)
		}
	case opStop:
		p.eng.stop()
	}
}

// decodeEngineOps reads 4 bytes per op.
func decodeEngineOps(data []byte) []engineOp {
	var ops []engineOp
	for ; len(data) >= 4; data = data[4:] {
		ops = append(ops, engineOp{
			kind: data[0] % 4,
			arg:  float64(data[1]%16) / 4,
			ref:  int(data[2]),
			next: int(data[3]),
		})
	}
	return ops
}

// FuzzEngineOrder checks the event queue against refEngine: the input
// decodes to a Run horizon and a program of Schedule, After, Cancel and
// Stop calls, run before the first Run and from inside handlers, with
// many events at equal times. After a Run to the horizon, a second Run
// past it and a final RunAll, both engines must have run the same events
// in the same order and agree on Processed, Pending and Now.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{9,
		opAt, 4, 0, 0, opAt, 4, 0, 1, opAfter, 0, 0, 2, opCancel, 0, 1, 0,
		opAt, 2, 0, 3, opAfter, 1, 0, 0, opStop, 0, 0, 0, opAt, 4, 0, 5})
	f.Add([]byte{255,
		opAfter, 0, 0, 0, opAfter, 0, 0, 0, opAt, 0, 0, 1, opCancel, 0, 0, 0})
	f.Add([]byte{3,
		opAt, 8, 0, 2, opAfter, 3, 0, 4, opCancel, 0, 0, 0, opAt, 1, 0, 6,
		opStop, 0, 0, 0, opAt, 1, 0, 0, opCancel, 0, 2, 0, opAfter, 5, 0, 1})
	f.Add([]byte{16, opAt, 6, 0, 0, opAt, 6, 0, 0, opAt, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		horizon := float64(data[0]%32) / 4
		if data[0] >= 224 {
			horizon = math.Inf(1)
		}
		ops := decodeEngineOps(data[1:])
		got := &engineProgram{ops: ops, eng: &realEngine{}}
		want := &engineProgram{ops: ops, eng: &refEngine{}}
		for _, p := range []*engineProgram{got, want} {
			for i := 0; i < len(ops) && i < setupOps; i++ {
				p.exec(ops[i])
			}
		}
		for _, until := range []float64{horizon, horizon + 2, math.Inf(1)} {
			got.eng.run(until)
			want.eng.run(until)
			if !reflect.DeepEqual(got.order, want.order) {
				t.Fatalf("Run(%v): engine ran %v, reference %v", until, got.order, want.order)
			}
			if g, w := got.eng.processed(), want.eng.processed(); g != w {
				t.Fatalf("Run(%v): Processed %d, reference %d", until, g, w)
			}
			if g, w := got.eng.pending(), want.eng.pending(); g != w {
				t.Fatalf("Run(%v): Pending %d, reference %d", until, g, w)
			}
			if g, w := got.eng.now(), want.eng.now(); g != w {
				t.Fatalf("Run(%v): Now %v, reference %v", until, g, w)
			}
		}
	})
}
