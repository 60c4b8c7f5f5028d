package assign

import (
	"math"
	"strconv"
	"testing"

	"taccc/internal/xrand"
)

// refTable is a reference Q table with dense rows: a map from the text
// key "<step>|<levels>" to a row copied from init on first lookup.
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

// qtableShapes are FuzzQTable's (edges, bits per level) pairs: short
// rows, one level (an empty key), and edge counts whose keys end just
// before, at and just past a word boundary — 31–33 and 63–65 edges at 2
// bits, 21 and 22 at 3, where edge 21's field straddles two words.
var qtableShapes = [][2]int{
	{1, 2}, {3, 2}, {5, 1}, {12, 3}, {4, 0},
	{31, 2}, {32, 2}, {33, 2}, {63, 2}, {64, 2}, {65, 2}, {21, 3}, {22, 3},
}

// FuzzQTable runs a decoded program of lookups, writes and bursts of new
// states against qtable and a map of dense rows, and requires the same
// values from both. The state is a step and one level per edge, packed
// into key words by packLevels. An operation byte selects:
//
//   - a lookup at step 0-3 after setting one edge to one level, so
//     successive states differ in one edge and the same levels recur at
//     different steps;
//   - the same lookup followed by a set of one action's value;
//   - a set through the handle of the last set, which may predate any
//     number of index and chunk growths; with a random action it repeats
//     the last action or spills the row;
//   - a burst of up to 510 new states at steps past the program's;
//     bursts add up to at most 4,600 rows, which drives the table through
//     every doubling chunk size and into its first fixed-size chunk
//     (TestQTableLarge fills many more).
//
// Every lookup of a known state must return its first handle, no two
// states may share a handle, and every read, through values and through
// get, must return the reference row's values. At the end every handle
// taken is read again, and every step's init vector must be unchanged:
// the table reads init in place, so a write through a shared slice would
// show there.
func FuzzQTable(f *testing.F) {
	for shape := range qtableShapes {
		src := xrand.New(int64(shape))
		prog := make([]byte, 600)
		for b := range prog {
			prog[b] = byte(src.Intn(256))
		}
		f.Add(uint8(shape), prog)
	}
	// With 3 edges: a state at step 0 is created in the first chunk, set
	// twice at action 0 and then at action 1, which spills it; nine
	// bursts take the table past 4,096 rows; the same levels at step 1
	// are set at action 1, and through that handle at action 2, which
	// spills a row after the growth; then the step-0 state is set at
	// action 2 through the first chunk's spill and read back.
	prog := []byte{0, 1, 1, 4, 1, 1, 0, 5, 4, 1, 1, 0, 6, 4, 1, 1, 1, 7}
	for i := 0; i < 9; i++ {
		prog = append(prog, 7, 255)
	}
	prog = append(prog, 12, 1, 1, 1, 9, 6, 2, 10)
	f.Add(uint8(1), append(prog, 4, 1, 1, 2, 11, 0, 1, 1))
	// With 22 edges at 3 bits: edge 21, whose field straddles the key's
	// two words, and edge 20 run through levels at step 0, some states
	// set, so states that differ only in the straddling field meet.
	prog = nil
	for lv := byte(0); lv < 8; lv++ {
		prog = append(prog, 0, 21, lv, 4, 20, lv, lv%22, lv, 0, 21, 7-lv)
	}
	f.Add(uint8(12), prog)
	f.Fuzz(func(t *testing.T, shape uint8, prog []byte) {
		sh := qtableShapes[int(shape)%len(qtableShapes)]
		m, width := sh[0], sh[1]
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
		levels := make([]int, m)
		q := newQTable(m, len(packLevels(levels, width)), inits)
		ref := refTable{}
		handles := map[string]qrow{}
		owners := map[qrow]string{}
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
		text := make([]byte, m)
		lookup := func(step int) (string, qrow) {
			for j, level := range levels {
				text[j] = 'a' + byte(level)
			}
			key := strconv.Itoa(step) + "|" + string(text)
			h := q.row(step, packLevels(levels, width))
			if first, ok := handles[key]; !ok {
				handles[key] = h
			} else if h != first {
				t.Fatalf("state %q: handle %d, first lookup returned %d", key, h, first)
			}
			if owner, ok := owners[h]; ok && owner != key {
				t.Fatalf("states %q and %q share handle %d", owner, key, h)
			}
			owners[h] = key
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
				if k+2 > len(prog) {
					k = len(prog)
					break
				}
				levels[int(prog[k])%m] = int(prog[k+1]) & (1<<width - 1)
				k += 2
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
// and the chunks' first sizes, with states that share keys across
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
	q := newQTable(3, 1, init)
	state := func(i int) (int, []uint64) { return i % 1000, []uint64{uint64(i / 1000)} }
	handles := make([]qrow, states)
	buf := make([]float64, 3)
	for i := range handles {
		step, key := state(i)
		handles[i] = q.row(step, key)
		if got := q.values(handles[i], buf); !sameBits(got, init[step]) {
			t.Fatalf("new row %d is %v, want init %v", i, got, init[step])
		}
		q.set(handles[i], 1, float64(i))
		if i%2 == 0 {
			q.set(handles[i], 2, float64(-i))
		}
	}
	for i, h := range handles {
		step, key := state(i)
		want := []float64{-1, float64(i), float64(-step)}
		if i%2 == 0 {
			want[2] = float64(-i)
		}
		if got := q.row(step, key); got != h {
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
// the same key at two steps, and two two-word keys at one step that
// differ in their first word (levels), or in their second
// (levels-word1). Each state must keep its own handle and value.
func TestQTableFingerprintCollisions(t *testing.T) {
	collide := func(state func(i int) (int, []uint64)) [2]int {
		seen := map[uint32]int{}
		for i := 0; i < 1<<20; i++ {
			step, key := state(i)
			fp := uint32(stateHash(step, key))
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
		state func(i int) (int, []uint64)
	}{
		{"steps", func(i int) (int, []uint64) { return i, []uint64{0x1b2c} }},
		{"levels", func(i int) (int, []uint64) { return 7, []uint64{uint64(i), 0x1b2c} }},
		{"levels-word1", func(i int) (int, []uint64) { return 7, []uint64{0x1b2c, uint64(i)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pair := collide(tc.state)
			_, key := tc.state(0)
			init := make([][]float64, max(pair[0], pair[1])+1)
			for s := range init {
				init[s] = make([]float64, 3)
			}
			q := newQTable(3, len(key), init)
			var handles [2]qrow
			for k, i := range pair {
				step, key := tc.state(i)
				handles[k] = q.row(step, key)
				q.set(handles[k], 0, float64(k+1))
			}
			for k, i := range pair {
				step, key := tc.state(i)
				if got := q.row(step, key); got != handles[k] || q.get(got, 0) != float64(k+1) {
					t.Fatalf("state %d (step %d, key %x) shares a row with its colliding twin", i, step, key)
				}
			}
		})
	}
}
