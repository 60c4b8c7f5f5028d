package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// runAll runs e to exhaustion, handing each payload to handle.
func runAll[P any](e *Engine[P], handle func(P)) { e.Run(math.Inf(1), handle) }

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine[float64]
	var order []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		e.Schedule(tm, tm)
	}
	runAll(&e, func(tm float64) { order = append(order, tm) })
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events ran out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d events, want 5", len(order))
	}
}

func TestEqualTimesRunInScheduleOrder(t *testing.T) {
	var e Engine[int]
	var order []int
	for i := 0; i < 10; i++ {
		e.Schedule(1, i)
	}
	runAll(&e, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of schedule order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	var e Engine[int]
	ran := 0
	runHandler := func(step int) {
		ran++
		switch step {
		case 0:
			if e.Now() != 10 {
				t.Errorf("Now() inside event = %v, want 10", e.Now())
			}
			e.After(5, 1)
		case 1:
			if e.Now() != 15 {
				t.Errorf("chained Now() = %v, want 15", e.Now())
			}
		}
	}
	e.Schedule(10, 0)
	runAll(&e, runHandler)
	if e.Now() != 15 {
		t.Fatalf("final Now() = %v, want 15", e.Now())
	}
	if ran != 2 {
		t.Fatalf("handled %d events, want 2", ran)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine[int]
	e.Schedule(10, 0)
	runAll(&e, func(int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, 0)
}

func TestAfterNegativePanics(t *testing.T) {
	var e Engine[int]
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-1, 0)
}

func TestRunHorizon(t *testing.T) {
	var e Engine[float64]
	var ran []float64
	handle := func(tm float64) { ran = append(ran, tm) }
	for _, tm := range []float64{1, 2, 3, 10, 20} {
		e.Schedule(tm, tm)
	}
	e.Run(10, handle)
	if len(ran) != 3 {
		t.Fatalf("Run(10) handled %d events, want 3 (exclusive horizon)", len(ran))
	}
	if e.Now() != 10 {
		t.Fatalf("clock after horizon = %v, want 10", e.Now())
	}
	// Remaining events still runnable; a drained queue leaves the clock
	// at the last event handled, not at the horizon.
	e.Run(100, handle)
	if len(ran) != 5 {
		t.Fatalf("total ran %d, want 5", len(ran))
	}
	if e.Now() != 20 {
		t.Fatalf("clock after draining = %v, want 20", e.Now())
	}
}

func TestEventCascade(t *testing.T) {
	// A self-perpetuating process: each event schedules the next until a
	// horizon; verifies heap behavior under interleaved push/pop.
	var e Engine[int]
	ticks := 0
	e.After(0, 0)
	runAll(&e, func(int) {
		ticks++
		if ticks < 1000 {
			e.After(1, ticks)
		}
	})
	if ticks != 1000 {
		t.Fatalf("ticks = %d, want 1000", ticks)
	}
	if e.Now() != 999 {
		t.Fatalf("Now = %v, want 999", e.Now())
	}
}

// Property: for arbitrary event time sets, execution order is the sorted
// order and the final clock equals the max time.
func TestOrderingQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		var e Engine[float64]
		var times []float64
		var ran []float64
		for _, r := range raw {
			tm := float64(r)
			times = append(times, tm)
			e.Schedule(tm, tm)
		}
		runAll(&e, func(tm float64) { ran = append(ran, tm) })
		if len(ran) != len(times) {
			return false
		}
		sort.Float64s(times)
		for i := range ran {
			if ran[i] != times[i] {
				return false
			}
		}
		if len(times) > 0 && e.Now() != times[len(times)-1] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleNaNPanics(t *testing.T) {
	var e Engine[int]
	defer func() {
		if recover() == nil {
			t.Fatal("NaN schedule did not panic")
		}
	}()
	e.Schedule(math.NaN(), 0)
}
