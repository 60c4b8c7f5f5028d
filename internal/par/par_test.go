package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 64} {
		if got := Workers(n); got != n {
			t.Fatalf("Workers(%d) = %d", n, got)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		for _, n := range []int{0, 1, 7, 1000} {
			counts := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForSequentialOrder(t *testing.T) {
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("workers=1 ran out of order: %v", order)
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	e3 := errors.New("cell 3")
	e7 := errors.New("cell 7")
	for _, workers := range []int{1, 8} {
		ran := make([]bool, 10)
		err := ForErr(workers, 10, func(i int) error {
			ran[i] = true
			switch i {
			case 7:
				return e7
			case 3:
				return e3
			}
			return nil
		})
		if !errors.Is(err, e3) {
			t.Fatalf("workers=%d: got %v, want lowest-index error %v", workers, err, e3)
		}
		for i, r := range ran {
			if !r {
				t.Fatalf("workers=%d: cell %d skipped after unrelated failure", workers, i)
			}
		}
	}
	if err := ForErr(4, 6, func(int) error { return nil }); err != nil {
		t.Fatalf("all-ok ForErr returned %v", err)
	}
}

func TestMapDeterministic(t *testing.T) {
	want := Map(1, 100, func(i int) int { return i * i })
	got := Map(8, 100, func(i int) int { return i * i })
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("Map workers=8 diverged at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if Map(4, 0, func(i int) int { return i }) != nil {
		t.Fatal("Map with n=0 should return nil")
	}
}
