package assign

import (
	"math"
	"strconv"
	"testing"

	"taccc/internal/xrand"
)

// refTable is the Q table the RL assigners used before qtable: a map from
// the text key "<step>|<level bytes>" to a row copied from init.
type refTable map[string][]float64

func (r refTable) row(step int, level []byte, init []float64) ([]float64, bool) {
	key := strconv.Itoa(step) + "|" + string(level)
	if row, ok := r[key]; ok {
		return row, false
	}
	row := append([]float64(nil), init...)
	r[key] = row
	return row, true
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
// states against qtable and the map it replaced, and requires the same
// rows from both. An operation byte selects:
//
//   - a lookup of (step 0-3, m level bytes over a three-letter alphabet),
//     so the same level bytes recur at different steps;
//   - the same lookup followed by a write of one value, made through the
//     first row ever returned for that state, which may predate any number
//     of index and chunk growths;
//   - a burst of up to 510 new states at steps past the program's;
//     bursts add up to at most 4,600 rows, which drives the table through
//     every doubling chunk size and into its first fixed-size chunk
//     (TestQTableLarge fills many more).
//
// Every lookup must return the reference row's values, and for a known
// state the same storage as before. Each new row copies its step's init
// vector, which then changes, so a row that aliased init would drift. At
// the end every row first returned for a state must still equal the
// reference, so no write reached another row.
func FuzzQTable(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		src := xrand.New(seed)
		prog := make([]byte, 600)
		for b := range prog {
			prog[b] = byte(src.Intn(256))
		}
		f.Add(uint8(seed*3), prog)
	}
	// With m = 3: a state at step 0 is created in the first chunk and
	// written; nine bursts take the table past 4,096 rows; the same
	// level bytes at step 1 are written; then the step-0 state is read
	// back, and must be the first storage with the first write.
	prog := []byte{0, 'a', 'b', 'c', 4, 'a', 'b', 'c', 0, 5}
	for i := 0; i < 9; i++ {
		prog = append(prog, 7, 255)
	}
	f.Add(uint8(2), append(prog, 12, 'a', 'b', 'c', 1, 9, 0, 'a', 'b', 'c'))
	f.Fuzz(func(t *testing.T, mRaw uint8, prog []byte) {
		m := 1 + int(mRaw%12)
		q := newQTable(m)
		ref := refTable{}
		// inits[s] is step s's init vector, first built by init; it
		// changes after every insert at step s.
		init := func(s int) []float64 {
			v := make([]float64, m)
			for j := range v {
				v[j] = float64(100*s + j)
			}
			return v
		}
		inits := map[int][]float64{}
		held := map[string][]float64{}
		level := make([]byte, m)
		lookup := func(step int) []float64 {
			if inits[step] == nil {
				inits[step] = init(step)
			}
			got := q.row(step, level, inits[step])
			want, created := ref.row(step, level, inits[step])
			if !sameBits(got, want) {
				t.Fatalf("state (%d, %q): row %v, reference %v", step, level, got, want)
			}
			key := strconv.Itoa(step) + "|" + string(level)
			if created {
				held[key] = got
				for j := range inits[step] {
					inits[step][j] += 0.5
				}
			} else if &got[0] != &held[key][0] {
				t.Fatalf("state (%d, %q): a lookup returned new storage", step, level)
			}
			return held[key]
		}
		next := 4
		for k := 0; k < len(prog); {
			op := prog[k]
			k++
			switch kind := op % 8; {
			case kind < 7:
				if k+m > len(prog) {
					k = len(prog)
					break
				}
				for j := range level {
					level[j] = 'a' + prog[k+j]%3
				}
				k += m
				step := int(op>>3) % 4
				row := lookup(step)
				if kind >= 4 && k+2 <= len(prog) {
					a, v := int(prog[k])%m, float64(int8(prog[k+1]))/4
					k += 2
					row[a] = v
					want, _ := ref.row(step, level, nil)
					want[a] = v
				}
			default:
				if k >= len(prog) {
					break
				}
				burst := min(2*int(prog[k]), 4604-next)
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
		for key, row := range held {
			if !sameBits(row, ref[key]) {
				t.Fatalf("state %q: row %v, reference %v after the program", key, row, ref[key])
			}
		}
		if q.rows != len(ref) {
			t.Fatalf("table holds %d rows, reference %d", q.rows, len(ref))
		}
	})
}

// TestQTableLarge fills a table past 2^18 rows, well beyond the index's
// and the chunks' first sizes, with states that share level bytes across
// steps, marks each row with its insertion order and then looks every
// state up again: each must come back as the same storage with its mark.
func TestQTableLarge(t *testing.T) {
	const states = 1<<18 + 1000
	q := newQTable(3)
	init := []float64{-1, -2, -3}
	state := func(i int) (int, []byte) {
		v := i / 1000
		return i % 1000, []byte{byte(v), byte(v >> 8), byte(v >> 16)}
	}
	rows := make([][]float64, states)
	for i := range rows {
		step, level := state(i)
		rows[i] = q.row(step, level, init)
		if !sameBits(rows[i], init) {
			t.Fatalf("new row %d is %v, want a copy of init %v", i, rows[i], init)
		}
		rows[i][1] = float64(i)
	}
	for i := range rows {
		step, level := state(i)
		got := q.row(step, level, init)
		if &got[0] != &rows[i][0] || got[1] != float64(i) || got[0] != -1 || got[2] != -3 {
			t.Fatalf("state %d: row %v, want the first lookup's storage marked %d", i, got, i)
		}
	}
	if q.rows != states {
		t.Fatalf("table holds %d rows, want %d", q.rows, states)
	}
}

// TestQTableFingerprintCollisions looks up pairs of states whose 32-bit
// fingerprints collide, so only the full key comparison tells them apart:
// the same level bytes at two steps, and two level vectors at one step.
// Each state must keep its own row.
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
			q := newQTable(len(level))
			init := make([]float64, len(level))
			var rows [2][]float64
			for k, i := range pair {
				step, level := tc.state(i)
				rows[k] = q.row(step, level, init)
				rows[k][0] = float64(k + 1)
			}
			for k, i := range pair {
				step, level := tc.state(i)
				if got := q.row(step, level, init); &got[0] != &rows[k][0] || got[0] != float64(k+1) {
					t.Fatalf("state %d (step %d, %q) shares a row with its colliding twin", i, step, level)
				}
			}
		})
	}
}
