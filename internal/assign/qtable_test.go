package assign

import (
	"math"
	"strconv"
	"testing"

	"taccc/internal/xrand"
)

// refTable is a reference Q table with dense rows: a map from the text
// key "<step>|<level bytes>" to a row copied from init on first lookup.
type refTable map[string][]float64

func (r refTable) row(key string, init []float64) []float64 {
	if row, ok := r[key]; ok {
		return row
	}
	row := append([]float64(nil), init...)
	r[key] = row
	return row
}

// sameBits reports whether a and b hold the same float bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// FuzzQTable runs a decoded program of lookups, writes and bursts of new
// states against qtable and a map of dense rows, and requires the same
// values from both. An operation byte selects:
//
//   - a lookup of (step 0-3, m level bytes over a three-letter alphabet),
//     so the same level bytes recur at different steps;
//   - the same lookup followed by a set of one action's value;
//   - a set through the handle of the last set, which may predate any
//     number of index and chunk growths; with a random action it repeats
//     the last action or spills the row;
//   - a burst of up to 510 new states at steps past the program's;
//     bursts add up to at most 4,600 rows, which drives the table through
//     every doubling chunk size and into its first fixed-size chunk
//     (TestQTableLarge fills many more).
//
// Every lookup of a known state must return its first handle, and every
// read, through values and through get, the reference row's values. At
// the end every handle taken is read again, and every step's init vector
// must be unchanged: the table reads init in place, so a write through a
// shared slice would show there.
func FuzzQTable(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		src := xrand.New(seed)
		prog := make([]byte, 600)
		for b := range prog {
			prog[b] = byte(src.Intn(256))
		}
		f.Add(uint8(seed*3), prog)
	}
	// With m = 3: a state at step 0 is created in the first chunk, set
	// twice at action 0 and then at action 1, which spills it; nine
	// bursts take the table past 4,096 rows; the same level bytes at step
	// 1 are set at action 1, and through that handle at action 2, which
	// spills a row after the growth; then the step-0 state is set at
	// action 2 through the first chunk's spill and read back.
	prog := []byte{0, 'a', 'b', 'c', 4, 'a', 'b', 'c', 0, 5, 4, 'a', 'b', 'c', 0, 6, 4, 'a', 'b', 'c', 1, 7}
	for i := 0; i < 9; i++ {
		prog = append(prog, 7, 255)
	}
	prog = append(prog, 12, 'a', 'b', 'c', 1, 9, 6, 2, 10)
	f.Add(uint8(2), append(prog, 4, 'a', 'b', 'c', 2, 11, 0, 'a', 'b', 'c'))
	f.Fuzz(func(t *testing.T, mRaw uint8, prog []byte) {
		m := 1 + int(mRaw%12)
		// inits[s] is step s's init vector, a slice of flat, and orig
		// a copy of flat.
		inits := make([][]float64, 4604)
		flat := make([]float64, len(inits)*m)
		for s := range inits {
			inits[s] = flat[s*m : (s+1)*m : (s+1)*m]
			for j := range inits[s] {
				inits[s][j] = float64(100*s + j)
			}
			if s%3 == 1 {
				inits[s][s%m] = math.Inf(-1)
			}
		}
		orig := append([]float64(nil), flat...)
		q := newQTable(m, inits)
		ref := refTable{}
		handles := map[string]qrow{}
		type taken struct {
			key string
			h   qrow
		}
		var held []taken
		buf := make([]float64, m)
		check := func(key string, h qrow) {
			want := ref[key]
			if got := q.values(h, buf); !sameBits(got, want) {
				t.Fatalf("state %q: values %v, reference %v", key, got, want)
			}
			for a := range want {
				if got := q.get(h, a); math.Float64bits(got) != math.Float64bits(want[a]) {
					t.Fatalf("state %q: get(%d) = %v, reference %v", key, a, got, want[a])
				}
			}
		}
		level := make([]byte, m)
		lookup := func(step int) (string, qrow) {
			key := strconv.Itoa(step) + "|" + string(level)
			h := q.row(step, level)
			if first, ok := handles[key]; !ok {
				handles[key] = h
			} else if h != first {
				t.Fatalf("state %q: handle %d, first lookup returned %d", key, h, first)
			}
			ref.row(key, inits[step])
			held = append(held, taken{key, h})
			check(key, h)
			return key, h
		}
		set := func(key string, h qrow, a int, v float64) {
			q.set(h, a, v)
			ref[key][a] = v
			check(key, h)
		}
		var last taken
		next := 4
		for k := 0; k < len(prog); {
			op := prog[k]
			k++
			switch kind := op % 8; {
			case kind < 6:
				if k+m > len(prog) {
					k = len(prog)
					break
				}
				for j := range level {
					level[j] = 'a' + prog[k+j]%3
				}
				k += m
				key, h := lookup(int(op>>3) % 4)
				if kind >= 4 && k+2 <= len(prog) {
					last = taken{key, h}
					set(key, h, int(prog[k])%m, float64(int8(prog[k+1]))/4)
					k += 2
				}
			case kind == 6:
				if last.key == "" || k+2 > len(prog) {
					k = len(prog)
					break
				}
				set(last.key, last.h, int(prog[k])%m, float64(int8(prog[k+1]))/4)
				k += 2
			default:
				if k >= len(prog) {
					break
				}
				burst := min(2*int(prog[k]), len(inits)-next)
				k++
				for j := range level {
					level[j] = 'a'
				}
				for i := 0; i < burst; i++ {
					lookup(next)
					next++
				}
			}
		}
		for _, th := range held {
			check(th.key, th.h)
		}
		for s := range inits {
			if want := orig[s*m : (s+1)*m]; !sameBits(inits[s], want) {
				t.Fatalf("step %d's init vector changed to %v from %v", s, inits[s], want)
			}
		}
		if q.rows != len(ref) {
			t.Fatalf("table holds %d rows, reference %d", q.rows, len(ref))
		}
	})
}

// TestQTableLarge fills a table past 2^18 rows, well beyond the index's
// and the chunks' first sizes, with states that share level bytes across
// steps. It marks each row's action 1 with its insertion order and every
// other row's action 2 too, which spills half the rows, past 2^17 spill
// ids. Then it looks every state up again: each must come back as the
// same handle with its marks over its step's init vector.
func TestQTableLarge(t *testing.T) {
	const states = 1<<18 + 1000
	init := make([][]float64, 1000)
	for s := range init {
		init[s] = []float64{-1, -2, float64(-s)}
	}
	q := newQTable(3, init)
	state := func(i int) (int, []byte) {
		v := i / 1000
		return i % 1000, []byte{byte(v), byte(v >> 8), byte(v >> 16)}
	}
	handles := make([]qrow, states)
	buf := make([]float64, 3)
	for i := range handles {
		step, level := state(i)
		handles[i] = q.row(step, level)
		if got := q.values(handles[i], buf); !sameBits(got, init[step]) {
			t.Fatalf("new row %d is %v, want init %v", i, got, init[step])
		}
		q.set(handles[i], 1, float64(i))
		if i%2 == 0 {
			q.set(handles[i], 2, float64(-i))
		}
	}
	for i, h := range handles {
		step, level := state(i)
		want := []float64{-1, float64(i), float64(-step)}
		if i%2 == 0 {
			want[2] = float64(-i)
		}
		if got := q.row(step, level); got != h {
			t.Fatalf("state %d: handle %d, want the first lookup's %d", i, got, h)
		}
		if got := q.values(h, buf); !sameBits(got, want) {
			t.Fatalf("state %d: row %v, want %v", i, got, want)
		}
	}
	if q.rows != states || q.nspill != (states+1)/2 {
		t.Fatalf("table holds %d rows and %d spilled, want %d and %d", q.rows, q.nspill, states, (states+1)/2)
	}
}

// TestQTableFingerprintCollisions looks up pairs of states whose 32-bit
// fingerprints collide, so only the full key comparison tells them apart:
// the same level bytes at two steps, and two level vectors at one step.
// Each state must keep its own handle and value.
func TestQTableFingerprintCollisions(t *testing.T) {
	collide := func(state func(i int) (int, []byte)) [2]int {
		seen := map[uint32]int{}
		for i := 0; i < 1<<20; i++ {
			step, level := state(i)
			fp := uint32(stateHash(step, level))
			if j, ok := seen[fp]; ok {
				return [2]int{j, i}
			}
			seen[fp] = i
		}
		t.Fatal("no fingerprint collision in 2^20 states")
		return [2]int{}
	}
	cases := []struct {
		name  string
		state func(i int) (int, []byte)
	}{
		{"steps", func(i int) (int, []byte) { return i, []byte("abcd") }},
		{"levels", func(i int) (int, []byte) {
			return 7, []byte{'a' + byte(i&7), 'a' + byte(i>>3&7), 'a' + byte(i>>6&7), 'a' + byte(i>>9&7),
				'a' + byte(i>>12&7), 'a' + byte(i>>15&7), 'a' + byte(i>>18&7)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pair := collide(tc.state)
			_, level := tc.state(0)
			m := len(level)
			init := make([][]float64, max(pair[0], pair[1])+1)
			for s := range init {
				init[s] = make([]float64, m)
			}
			q := newQTable(m, init)
			var handles [2]qrow
			for k, i := range pair {
				step, level := tc.state(i)
				handles[k] = q.row(step, level)
				q.set(handles[k], 0, float64(k+1))
			}
			for k, i := range pair {
				step, level := tc.state(i)
				if got := q.row(step, level); got != handles[k] || q.get(got, 0) != float64(k+1) {
					t.Fatalf("state %d (step %d, %q) shares a row with its colliding twin", i, step, level)
				}
			}
		})
	}
}
