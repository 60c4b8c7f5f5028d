package sim

import (
	"math"
	"reflect"
	"testing"
)

// engineOps is the surface FuzzEngineOrder drives. The engine under test
// and the reference both implement it; an event's payload is its id, the
// order in which it was scheduled.
type engineOps interface {
	now() float64
	// at schedules event id at t, or reports false when the engine
	// refuses t (NaN or in the past) and queues nothing.
	at(t float64, id int) bool
	after(delay float64, id int)
	run(until float64, handle func(id int))
}

// realEngine adapts Engine to engineOps.
type realEngine struct{ e Engine[int] }

func (r *realEngine) now() float64 { return r.e.Now() }
func (r *realEngine) at(t float64, id int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	r.e.Schedule(t, id)
	return true
}
func (r *realEngine) after(delay float64, id int)            { r.e.After(delay, id) }
func (r *realEngine) run(until float64, handle func(id int)) { r.e.Run(until, handle) }

// refEngine is the naive engine FuzzEngineOrder checks Engine against:
// it keeps every event in scheduling order and runs the pending one with
// the smallest (time, seq), found by a linear scan.
type refEngine struct {
	clock  float64
	events []refEvent
}

type refEvent struct {
	t    float64
	id   int
	done bool
}

func (r *refEngine) now() float64 { return r.clock }
func (r *refEngine) at(t float64, id int) bool {
	if math.IsNaN(t) || t < r.clock {
		return false
	}
	r.events = append(r.events, refEvent{t: t, id: id})
	return true
}
func (r *refEngine) after(delay float64, id int) { r.at(r.clock+delay, id) }

// next returns the index of the first pending event, or -1. Scanning in
// scheduling order with a strict comparison breaks time ties by seq.
func (r *refEngine) next() int {
	best := -1
	for i, ev := range r.events {
		if !ev.done && (best < 0 || ev.t < r.events[best].t) {
			best = i
		}
	}
	return best
}

func (r *refEngine) run(until float64, handle func(id int)) {
	for {
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
		handle(r.events[i].id)
	}
}

// engineOp is one decoded operation of an engine program.
type engineOp struct {
	kind byte    // opAt, opAfter, opPast or opNaN
	arg  float64 // absolute time (opAt), delay (opAfter) or lag (opPast), on a coarse grid so times tie
	next int     // scheduling ops: where the new event's handler program starts
}

const (
	opAt = iota
	opAfter
	opPast // Schedule before Now: must be refused
	opNaN  // Schedule at NaN: must be refused
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
// of each event as it runs and whether each refusable schedule was
// accepted.
type engineProgram struct {
	ops      []engineOp
	eng      engineOps
	order    []int
	accepted []bool
	starts   []int // handler program start of each scheduled event
}

func (p *engineProgram) exec(o engineOp) {
	id := len(p.starts)
	switch o.kind {
	case opAt, opAfter:
		if id >= maxEvents {
			return
		}
		p.starts = append(p.starts, o.next)
		if o.kind == opAfter {
			p.eng.after(o.arg, id)
		} else {
			p.eng.at(math.Max(o.arg, p.eng.now()), id)
		}
	case opPast, opNaN:
		t := p.eng.now() - 0.25 - o.arg
		if o.kind == opNaN {
			t = math.NaN()
		}
		p.accepted = append(p.accepted, p.eng.at(t, -1))
	}
}

// handle runs event id: it logs the id, then runs the event's handler
// program, which may schedule follow-ups.
func (p *engineProgram) handle(id int) {
	p.order = append(p.order, id)
	for k := 0; k < handlerOps; k++ {
		p.exec(p.ops[(p.starts[id]+k)%len(p.ops)])
	}
}

// decodeEngineOps reads 4 bytes per op; the third byte is unused.
func decodeEngineOps(data []byte) []engineOp {
	var ops []engineOp
	for ; len(data) >= 4; data = data[4:] {
		ops = append(ops, engineOp{
			kind: data[0] % 4,
			arg:  float64(data[1]%16) / 4,
			next: int(data[3]),
		})
	}
	return ops
}

// FuzzEngineOrder checks the event queue against refEngine: the input
// decodes to a Run horizon and a program of Schedule and After calls, run
// before the first Run and from inside handlers, with many events at
// equal times, plus schedules in the past or at NaN that the engine must
// refuse without queueing anything. After a Run to the horizon, a second
// Run past it and a final Run to +Inf, both engines must have handled the
// same events in the same order and agree on Now.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{9,
		opAt, 4, 0, 0, opAt, 4, 0, 1, opAfter, 0, 0, 2, opPast, 0, 1, 0,
		opAt, 2, 0, 3, opAfter, 1, 0, 0, opNaN, 0, 0, 0, opAt, 4, 0, 5})
	f.Add([]byte{255,
		opAfter, 0, 0, 0, opAfter, 0, 0, 0, opAt, 0, 0, 1, opPast, 0, 0, 0})
	f.Add([]byte{3,
		opAt, 8, 0, 2, opAfter, 3, 0, 4, opPast, 0, 0, 0, opAt, 1, 0, 6,
		opNaN, 0, 0, 0, opAt, 1, 0, 0, opPast, 0, 2, 0, opAfter, 5, 0, 1})
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
			got.eng.run(until, got.handle)
			want.eng.run(until, want.handle)
			if !reflect.DeepEqual(got.order, want.order) {
				t.Fatalf("Run(%v): engine ran %v, reference %v", until, got.order, want.order)
			}
			if !reflect.DeepEqual(got.accepted, want.accepted) {
				t.Fatalf("Run(%v): engine accepted %v, reference %v", until, got.accepted, want.accepted)
			}
			if g, w := got.eng.now(), want.eng.now(); g != w {
				t.Fatalf("Run(%v): Now %v, reference %v", until, g, w)
			}
		}
		for _, ok := range got.accepted {
			if ok {
				t.Fatal("engine accepted a schedule in the past or at NaN")
			}
		}
	})
}
