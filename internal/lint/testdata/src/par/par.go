// Package par is a fixture stub of internal/par: the same entry-point
// shapes, executed sequentially. Parshare matches it by path, so fixture
// closures are held to the real worker-write discipline.
package par

// Shard mirrors internal/par.Shard.
type Shard struct{ Lo, Hi int }

func For(workers, n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func ForShards(workers, n int, now func() float64, fn func(i int)) []Shard {
	for i := 0; i < n; i++ {
		fn(i)
	}
	return []Shard{{Lo: 0, Hi: n}}
}

func ForErr(workers, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = fn(i)
	}
	return out
}
