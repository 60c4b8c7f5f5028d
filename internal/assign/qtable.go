package assign

import (
	"math/bits"
	"slices"
)

// qtable is the Q table of the RL assigners: one value per visited state
// and action, keyed by the MDP's step and its packed state key. Rows are
// implicit. A row's value for action a is the last value set for
// (row, a); otherwise it is init[step][a], read from the per-step init
// vectors that the table holds by reference and never writes. Its
// contract, on which every RL variant relies:
//
//   - the same state returns the same handle, so a value set through a
//     handle shows in every later read of that state;
//   - only set writes a value; a slice that values returns is a read-only
//     snapshot, which may be an init vector or the row's own storage;
//   - nothing iterates the table, so its layout never reaches an output.
//
// A row holds its key words, its step and one inline (action, value)
// override. Setting a second distinct action spills the row into a dense
// row of m values. Rows and spilled rows live in chunks that hold no
// pointers, so the garbage collector never scans them. Chunks are only
// ever appended, never moved, so a returned slice of a spilled row stays
// valid while the table grows. They double from a small first chunk,
// which keeps small instances small, up to a fixed size that bounds the
// unused tail. An open-addressing index maps a state to its row id, the
// handle.
type qtable struct {
	m int
	// words is the length of a state key.
	words int
	// init[t] is the value of every action not yet set in a row at step
	// t. The table only reads it.
	init   [][]float64
	chunks []qchunk
	rows   int
	// spills holds the spilled rows, spill id s at spills[c][k*m:(k+1)*m]
	// for c, k = chunkOf(s); nspill counts them.
	spills [][]float64
	nspill int
	// index holds one slot per power-of-two position, probed linearly
	// from a state's hash; it is at most three-quarters full.
	index []qslot
}

// qrow is a row's handle: its row id.
type qrow uint32

// qchunk stores consecutive rows: row k of the chunk has key words
// keys[k*words:(k+1)*words], step steps[k] and override slot over[k].
// The slot is 0 for a row with no override, a+1 for an inline override
// of action a whose value is vals[k], and qSpilled|s for a row spilled
// to spill id s.
type qchunk struct {
	keys  []uint64
	steps []int32
	over  []uint32
	vals  []float64
}

// qslot is one index entry: the state's 32-bit hash fingerprint and its
// row id plus one, so the zero slot is empty.
type qslot struct {
	fp uint32
	id uint32
}

const (
	// qFirstShift sizes the first chunk (16 rows); the chunks after it
	// double, so each starts at a row id equal to its own size, until
	// they reach qChunkShift (4096 rows), the size of every later chunk.
	// Spilled rows are chunked the same way.
	qFirstShift = 4
	qChunkShift = 12
	qChunkRows  = 1 << qChunkShift
	// qFirstSlots is the index size of an empty table.
	qFirstSlots = 32
	// qSpilled marks an override slot that holds a spill id.
	qSpilled = 1 << 31
)

// newQTable returns an empty table for rows of m action values keyed by
// state keys of the given number of words, whose unset values at step t
// are init[t].
func newQTable(m, words int, init [][]float64) *qtable {
	return &qtable{m: m, words: words, init: init}
}

// row returns the handle of state (step, key), adding the state as a row
// with no override if it is new. key is read, never retained.
func (q *qtable) row(step int, key []uint64) qrow {
	if 4*(q.rows+1) > 3*len(q.index) {
		q.grow()
	}
	h := stateHash(step, key)
	fp := uint32(h)
	mask := uint32(len(q.index) - 1)
	for pos := fp & mask; ; pos = (pos + 1) & mask {
		s := q.index[pos]
		if s.id == 0 {
			q.index[pos] = qslot{fp: fp, id: uint32(q.rows) + 1}
			return q.add(step, key)
		}
		if s.fp != fp {
			continue
		}
		id := int(s.id - 1)
		c, k := chunkOf(id)
		ch := &q.chunks[c]
		if ch.steps[k] == int32(step) && slices.Equal(ch.keys[k*q.words:(k+1)*q.words], key) {
			return qrow(id)
		}
	}
}

// add appends row id q.rows for (step, key), starting a new chunk when
// the last one is full, and returns its handle.
func (q *qtable) add(step int, key []uint64) qrow {
	c, k := chunkOf(q.rows)
	if c == len(q.chunks) {
		n := chunkRows(q.rows)
		q.chunks = append(q.chunks, qchunk{
			keys:  make([]uint64, n*q.words),
			steps: make([]int32, n),
			over:  make([]uint32, n),
			vals:  make([]float64, n),
		})
	}
	ch := &q.chunks[c]
	copy(ch.keys[k*q.words:(k+1)*q.words], key)
	ch.steps[k] = int32(step)
	id := qrow(q.rows)
	q.rows++
	return id
}

// values returns row h's m action values as a read-only slice: the step's
// init vector itself for a row with no override, the spilled row's own
// storage for a spilled row, and otherwise buf, filled with init and the
// override. A caller that sets h or reuses buf must not read the slice
// again.
func (q *qtable) values(h qrow, buf []float64) []float64 {
	c, k := chunkOf(int(h))
	ch := &q.chunks[c]
	init := q.init[ch.steps[k]]
	switch o := ch.over[k]; {
	case o == 0:
		return init
	case o&qSpilled != 0:
		return q.spilled(o &^ qSpilled)
	default:
		buf = append(buf[:0], init...)
		buf[o-1] = ch.vals[k]
		return buf
	}
}

// override returns how row h departs from its step's init vector: a is
// the action of its inline override and v that action's value, or a is
// -1 and spilled is the row's own storage if it spilled, or nil if the
// row has no override.
func (q *qtable) override(h qrow) (a int, v float64, spilled []float64) {
	c, k := chunkOf(int(h))
	ch := &q.chunks[c]
	switch o := ch.over[k]; {
	case o == 0:
		return -1, 0, nil
	case o&qSpilled != 0:
		return -1, 0, q.spilled(o &^ qSpilled)
	default:
		return int(o - 1), ch.vals[k], nil
	}
}

// get returns row h's value for action a.
func (q *qtable) get(h qrow, a int) float64 {
	c, k := chunkOf(int(h))
	ch := &q.chunks[c]
	switch o := ch.over[k]; {
	case o == uint32(a)+1:
		return ch.vals[k]
	case o&qSpilled != 0:
		return q.spilled(o &^ qSpilled)[a]
	}
	return q.init[ch.steps[k]][a]
}

// set makes v row h's value for action a. The first action set stays
// inline; setting a second distinct one spills the row.
func (q *qtable) set(h qrow, a int, v float64) {
	c, k := chunkOf(int(h))
	ch := &q.chunks[c]
	switch o := ch.over[k]; {
	case o == 0 || o == uint32(a)+1:
		ch.over[k], ch.vals[k] = uint32(a)+1, v
	case o&qSpilled != 0:
		q.spilled(o &^ qSpilled)[a] = v
	default:
		s := q.spill(q.init[ch.steps[k]])
		row := q.spilled(s)
		row[o-1] = ch.vals[k]
		row[a] = v
		ch.over[k] = qSpilled | s
	}
}

// spill appends a dense row copied from init, starting a new spill chunk
// when the last one is full, and returns its spill id.
func (q *qtable) spill(init []float64) uint32 {
	c, k := chunkOf(q.nspill)
	if c == len(q.spills) {
		q.spills = append(q.spills, make([]float64, chunkRows(q.nspill)*q.m))
	}
	copy(q.spills[c][k*q.m:(k+1)*q.m], init)
	s := uint32(q.nspill)
	q.nspill++
	return s
}

// spilled returns the storage of spill id s.
func (q *qtable) spilled(s uint32) []float64 {
	c, k := chunkOf(int(s))
	return q.spills[c][k*q.m : (k+1)*q.m : (k+1)*q.m]
}

// grow doubles the index, re-placing every slot by its fingerprint.
func (q *qtable) grow() {
	old := q.index
	q.index = make([]qslot, max(2*len(old), qFirstSlots))
	mask := uint32(len(q.index) - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		pos := s.fp & mask
		for q.index[pos].id != 0 {
			pos = (pos + 1) & mask
		}
		q.index[pos] = s
	}
}

// chunkRows is the size of the chunk that starts at id, the first id
// past the existing chunks.
func chunkRows(id int) int { return min(max(id, 1<<qFirstShift), qChunkRows) }

// chunkOf locates row id: its chunk and its index within the chunk.
// Chunk 0 holds the first 1<<qFirstShift rows; every later chunk below
// qChunkRows starts at its own size, a power of two, so its number
// follows from id's highest bit; from qChunkRows on all chunks are
// qChunkRows long.
func chunkOf(id int) (c, k int) {
	switch {
	case id >= qChunkRows:
		return id>>qChunkShift + qChunkShift - qFirstShift, id & (qChunkRows - 1)
	case id < 1<<qFirstShift:
		return 0, id
	}
	top := bits.Len(uint(id)) - 1
	return top + 1 - qFirstShift, id - 1<<top
}

// stateHash is a fixed, unseeded hash of a state: each key word is
// folded in with a multiply and a rotation, and MurmurHash3's 64-bit
// finalizer mixes the result.
func stateHash(step int, key []uint64) uint64 {
	const k1, k2 = 0x87c37b91114253d5, 0x4cf5ad432745937f
	h := uint64(step)*k2 ^ uint64(len(key))
	for _, w := range key {
		h = bits.RotateLeft64(h^w*k1, 31) * k2
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
