// Package parshare exercises the par-closure write discipline: per-index
// slots and mutex-guarded sinks pass, every other write to captured
// state is a finding.
package parshare

import (
	"sync"

	"par"
)

// perIndex writes only its own slot.
func perIndex() []float64 {
	out := make([]float64, 8)
	par.For(4, len(out), func(i int) {
		out[i] = float64(i) * 2
	})
	return out
}

// nestedIndex owns the slot through an outer index too.
func nestedIndex(grid [][]float64) {
	par.For(2, len(grid), func(i int) {
		row := grid[i]
		par.For(2, len(row), func(j int) {
			row[j] = float64(i * j)
		})
	})
}

func appendShared() []float64 {
	var out []float64
	par.For(4, 8, func(i int) {
		out = append(out, float64(i)) // want `append to captured slice "out" inside a par\.For closure`
	})
	return out
}

func counter() int {
	n := 0
	err := par.ForErr(4, 8, func(i int) error {
		n++ // want `par\.ForErr closure writes captured variable "n"`
		return nil
	})
	_ = err
	return n
}

func foldShared() float64 {
	sum := 0.0
	par.Map(4, 8, func(i int) float64 {
		sum = sum + float64(i) // want `par\.Map closure writes captured variable "sum"`
		return sum
	})
	return sum
}

func shardSlots(now func() float64) []float64 {
	vals := make([]float64, 8)
	par.ForShards(4, len(vals), now, func(i int) {
		vals[i] = 1
	})
	return vals
}

// mutexSink is the documented shared-sink shape: captured mutex, deferred
// unlock, the window stays open to the end of the closure.
func mutexSink() int {
	var mu sync.Mutex
	total := 0
	par.For(4, 8, func(i int) {
		mu.Lock()
		defer mu.Unlock()
		total += i
	})
	return total
}

// unlockedWrite releases the lock first; the write after Unlock is bare.
func unlockedWrite() int {
	var mu sync.Mutex
	total := 0
	par.For(4, 8, func(i int) {
		mu.Lock()
		total += i
		mu.Unlock()
		total += i // want `par\.For closure writes captured variable "total"`
	})
	return total
}

// localState inside the closure is worker-private and free to mutate.
func localState() []int {
	out := make([]int, 8)
	par.For(4, len(out), func(i int) {
		acc := 0
		for j := 0; j <= i; j++ {
			acc += j
		}
		out[i] = acc
	})
	return out
}

// allowed documents a reviewed violation in place.
func allowed() []float64 {
	var out []float64
	par.For(4, 8, func(i int) {
		out = append(out, float64(i)) //lint:allow parshare results are sorted before use
	})
	return out
}
