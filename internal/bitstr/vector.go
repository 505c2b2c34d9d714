package bitstr

import "math/bits"

// Vector is a fixed-length mutable bit vector. It backs the "fat bit string"
// part of the labeling schemes: fat vertex i sets bit j iff it is adjacent to
// fat vertex j.
type Vector struct {
	words []uint64
	n     int
}

// NewVector returns an all-zero vector of n bits.
func NewVector(n int) *Vector {
	if n < 0 {
		n = 0
	}
	return &Vector{words: make([]uint64, (n+63)>>6), n: n}
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }

// Reset zeroes every bit, retaining the allocated words. Encoders reuse one
// vector across vertices instead of allocating per label.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Grow extends the vector to at least n bits, preserving existing bits; new
// bits are zero. A no-op when the vector is already long enough. Callers
// that reuse one vector across differently-sized inputs (encoders pooling
// scratch) grow once instead of reallocating per use.
func (v *Vector) Grow(n int) {
	if n <= v.n {
		return
	}
	need := (n + 63) >> 6
	if need > len(v.words) {
		if need <= cap(v.words) {
			v.words = v.words[:need]
		} else {
			// Amortized doubling: callers growing one bit at a time (e.g. the
			// adjacency-matrix encoder walking vertices in order) pay O(n)
			// total, not O(n) reallocations.
			newCap := 2 * cap(v.words)
			if newCap < need {
				newCap = need
			}
			nw := make([]uint64, need, newCap)
			copy(nw, v.words)
			v.words = nw
		}
	}
	v.n = n
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.words[i>>6] |= 1 << (63 - uint(i&63))
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.words[i>>6] &^= 1 << (63 - uint(i&63))
}

// Get returns bit i.
func (v *Vector) Get(i int) bool {
	return v.words[i>>6]&(1<<(63-uint(i&63))) != 0
}

// Count returns the total number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Append writes the vector's bits (in index order) onto a builder.
func (v *Vector) Append(b *Builder) {
	for i := 0; i < v.n; i += 64 {
		w := v.n - i
		if w > 64 {
			w = 64
		}
		b.AppendUint(v.words[i>>6]>>uint(64-w), w)
	}
}
