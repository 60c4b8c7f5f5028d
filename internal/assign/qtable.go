package assign

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// qtable is the Q table of the RL assigners: one row of action values per
// visited state, keyed by the MDP's step and its per-edge level bytes.
// Its contract, on which every RL variant relies:
//
//   - the same state returns the same row storage, so a write through a
//     row shows in every later lookup of that state;
//   - a new row is a copy of the init vector it was created with;
//   - nothing iterates the table, so its layout never reaches an output.
//
// Rows, their level bytes and their steps live in chunks that hold no
// pointers, so the garbage collector never scans them. Chunks are only
// ever appended, never moved, so a returned row stays valid while the
// table grows. They double from a small first chunk, which keeps small
// instances small, up to a fixed size that bounds the unused tail. An
// open-addressing index maps a state to its row id.
type qtable struct {
	m      int
	chunks []qchunk
	rows   int
	// index holds one slot per power-of-two position, probed linearly
	// from a state's hash; it is at most three-quarters full.
	index []qslot
}

// qchunk stores consecutive rows: row k of the chunk has values
// vals[k*m:(k+1)*m], level bytes keys[k*m:(k+1)*m] and step steps[k].
type qchunk struct {
	vals  []float64
	keys  []byte
	steps []int32
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
	qFirstShift = 4
	qChunkShift = 12
	qChunkRows  = 1 << qChunkShift
	// qFirstSlots is the index size of an empty table.
	qFirstSlots = 32
)

// newQTable returns an empty table for rows of m action values.
func newQTable(m int) *qtable { return &qtable{m: m} }

// row returns the row of state (step, level), creating it as a copy of
// init if the state is new. level is read, never retained.
func (q *qtable) row(step int, level []byte, init []float64) []float64 {
	if 4*(q.rows+1) > 3*len(q.index) {
		q.grow()
	}
	h := stateHash(step, level)
	fp := uint32(h)
	mask := uint32(len(q.index) - 1)
	for pos := fp & mask; ; pos = (pos + 1) & mask {
		s := q.index[pos]
		if s.id == 0 {
			q.index[pos] = qslot{fp: fp, id: uint32(q.rows) + 1}
			return q.add(step, level, init)
		}
		if s.fp != fp {
			continue
		}
		id := int(s.id - 1)
		c, k := chunkOf(id)
		ch := &q.chunks[c]
		if ch.steps[k] == int32(step) && bytes.Equal(ch.keys[k*q.m:(k+1)*q.m], level) {
			return ch.vals[k*q.m : (k+1)*q.m : (k+1)*q.m]
		}
	}
}

// add appends row id q.rows for (step, level) as a copy of init,
// starting a new chunk when the last one is full, and returns it.
func (q *qtable) add(step int, level []byte, init []float64) []float64 {
	c, k := chunkOf(q.rows)
	if c == len(q.chunks) {
		n := min(max(q.rows, 1<<qFirstShift), qChunkRows)
		q.chunks = append(q.chunks, qchunk{
			vals:  make([]float64, n*q.m),
			keys:  make([]byte, n*q.m),
			steps: make([]int32, n),
		})
	}
	ch := &q.chunks[c]
	row := ch.vals[k*q.m : (k+1)*q.m : (k+1)*q.m]
	copy(row, init)
	copy(ch.keys[k*q.m:(k+1)*q.m], level)
	ch.steps[k] = int32(step)
	q.rows++
	return row
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

// stateHash is a fixed, unseeded hash of a state: the level bytes are
// read eight at a time, each word folded in with a multiply and a
// rotation, and MurmurHash3's 64-bit finalizer mixes the result.
func stateHash(step int, level []byte) uint64 {
	const k1, k2 = 0x87c37b91114253d5, 0x4cf5ad432745937f
	h := uint64(step)*k2 ^ uint64(len(level))
	for ; len(level) >= 8; level = level[8:] {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(level)*k1, 31) * k2
	}
	if len(level) > 0 {
		var tail uint64
		for i, b := range level {
			tail |= uint64(b) << (8 * i)
		}
		h = bits.RotateLeft64(h^tail*k1, 31) * k2
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
