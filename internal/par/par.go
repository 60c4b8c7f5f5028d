// Package par is the repository's shared worker-pool utility: a bounded
// parallel-for over an index space, built for deterministic fan-out.
//
// Every concurrent hot path in this codebase (experiment replication cells,
// Dijkstra sources in the topology kernels) follows the same discipline:
// the work is split into independent index-addressed cells, each worker
// writes only to the cell it owns (a pre-sized slice element), and all
// aggregation happens sequentially after the pool drains. Under that
// discipline parallelism changes wall-clock time only, never output, so a
// run at workers=N is bit-identical to workers=1.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: any value <= 0 means "use every
// core" (runtime.GOMAXPROCS(0)); positive values pass through. 1 requests
// fully sequential execution.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns when all calls have completed. workers <= 1 (or n <= 1) executes
// sequentially on the calling goroutine with no synchronization overhead.
// Workers claim consecutive indices in batches of about n/(64·workers), so
// a loop over many cheap cells (the rows of a matrix) does not pay one
// contended atomic per cell, while a loop over fewer than 128 cells per
// worker (Dijkstra sources, experiment cells) still hands them out one
// at a time.
//
// Determinism contract: fn must write only to state owned by index i
// (e.g. out[i]); it must not append to shared slices, fold into shared
// accumulators, or depend on the order other indices run in.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	batch := max(1, n/(64*workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(batch))) - batch
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+batch, n); i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Shard is one worker's measured share of a ForShards run: which cells
// it processed and how its wall-clock time was spent. StartMs/EndMs
// bound the worker's activity (first entry to last exit), BusyMs is the
// time actually inside fn; the difference is pull-loop overhead plus,
// for the pool as a whole, tail idleness while other workers finish.
type Shard struct {
	Worker  int
	Items   int
	StartMs float64
	EndMs   float64
	BusyMs  float64
}

// ForShards is For with per-worker timing: now is a monotonic
// millisecond clock (obs.Clock.NowMs; par itself never reads the wall
// clock), and the returned slice holds one Shard per worker that ran,
// indexed by worker ID. Timing is observational only — the work
// distribution, the determinism contract on fn and the results are
// exactly those of For.
//
// A nil now is the off switch: the call degrades to precisely For and
// returns nil, with no clock reads and no allocation, so instrumented
// call sites thread a possibly-nil clock unconditionally.
func ForShards(workers, n int, now func() float64, fn func(i int)) []Shard {
	if now == nil {
		For(workers, n, fn)
		return nil
	}
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		start := now()
		busy := 0.0
		for i := 0; i < n; i++ {
			t0 := now()
			fn(i)
			busy += now() - t0
		}
		return []Shard{{Worker: 0, Items: n, StartMs: start, EndMs: now(), BusyMs: busy}}
	}
	shards := make([]Shard, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			sh := &shards[w]
			sh.Worker = w
			sh.StartMs = now()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				t0 := now()
				fn(i)
				sh.BusyMs += now() - t0
				sh.Items++
			}
			sh.EndMs = now()
		}(w)
	}
	wg.Wait()
	return shards
}

// ForErr is For over a fallible body. Every cell runs regardless of other
// cells' failures (no cancellation, so partial results land in their slots),
// and the returned error is the one from the lowest failing index — the same
// error a sequential loop that collected all failures would report — keeping
// error output independent of goroutine scheduling.
func ForErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	For(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map applies fn to every index in [0, n) on at most workers goroutines and
// returns the results in index order. It is For with the pre-sized output
// slice managed for the caller.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	For(workers, n, func(i int) { out[i] = fn(i) })
	return out
}
