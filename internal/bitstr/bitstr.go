// Package bitstr provides the bit-level encoding substrate used by every
// labeling scheme in this repository.
//
// A label in an adjacency labeling scheme is a bit string, and the size of a
// scheme is measured in bits, not bytes. This package therefore provides
// exact-bit primitives: an append-only Builder, a cursor-based Reader,
// fixed-width integers, unary codes, Elias gamma/delta codes, and bit
// vectors with O(1) rank support. All types are stdlib-only and safe for
// concurrent reads after construction.
package bitstr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// ErrOutOfBounds is returned when a read would pass the end of the string.
var ErrOutOfBounds = errors.New("bitstr: read out of bounds")

// ErrMalformed is returned when a self-delimiting code cannot be decoded.
var ErrMalformed = errors.New("bitstr: malformed code")

// String is an immutable sequence of bits. The zero value is the empty
// string. Bits are stored MSB-first within each byte so that lexicographic
// comparison of the underlying bytes matches bit-wise lexicographic order.
type String struct {
	data []byte
	n    int // number of valid bits
}

// Len returns the number of bits in s.
func (s String) Len() int { return s.n }

// Bytes returns the underlying storage. The final byte may contain up to 7
// padding zero bits. The caller must not modify the returned slice.
func (s String) Bytes() []byte { return s.data }

// SizeBytes returns the number of bytes needed to store the string.
func (s String) SizeBytes() int { return len(s.data) }

// Bit returns the i-th bit (0-indexed from the start of the string).
func (s String) Bit(i int) (bool, error) {
	if i < 0 || i >= s.n {
		return false, fmt.Errorf("%w: bit %d of %d", ErrOutOfBounds, i, s.n)
	}
	return s.data[i>>3]&(1<<(7-uint(i&7))) != 0, nil
}

// MustPeekUint reads w (at most 64) bits starting at bit offset i, MSB
// first, without a Reader, for callers that have already bounds-checked
// [i, i+w) against Len(); out-of-range offsets cause a panic or garbage bits
// rather than an error.
func (s String) MustPeekUint(i, w int) uint64 {
	return s.peek64(i, w)
}

// Wrap builds a String that views data directly — no copy — so many labels
// can share one contiguous arena slab. len(data) must be exactly
// ceil(nBits/8). Wrap zeroes the padding bits of the final byte in place
// (so Equal and lexicographic byte comparison behave as for built strings);
// the caller must not modify data afterwards.
func Wrap(data []byte, nBits int) (String, error) {
	if nBits < 0 || len(data) != (nBits+7)>>3 {
		return String{}, fmt.Errorf("%w: %d bytes for %d bits", ErrMalformed, len(data), nBits)
	}
	if pad := nBits & 7; pad != 0 {
		data[len(data)-1] &= byte(0xFF) << (8 - pad)
	}
	return String{data: data, n: nBits}, nil
}

// Equal reports whether two bit strings have identical length and content.
func (s String) Equal(t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.data {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	return true
}

// String renders the bits as a "0101..." text form, truncated for very long
// strings so that debug output stays readable.
func (s String) String() string {
	const maxRender = 128
	var b strings.Builder
	n := s.n
	trunc := false
	if n > maxRender {
		n = maxRender
		trunc = true
	}
	b.Grow(n + 16)
	for i := 0; i < n; i++ {
		bit, _ := s.Bit(i)
		if bit {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	if trunc {
		fmt.Fprintf(&b, "...(%d bits)", s.n)
	}
	return b.String()
}

// Builder incrementally assembles a bit string. The zero value is ready to
// use. Builder is not safe for concurrent use.
type Builder struct {
	data []byte
	n    int
}

// Len returns the number of bits appended so far.
func (b *Builder) Len() int { return b.n }

// Reset discards all appended bits, retaining allocated capacity.
func (b *Builder) Reset() {
	b.data = b.data[:0]
	b.n = 0
}

// Grow pre-allocates capacity for at least nBits additional bits.
func (b *Builder) Grow(nBits int) {
	need := (b.n+nBits+7)>>3 - len(b.data)
	if need <= 0 {
		return
	}
	if cap(b.data)-len(b.data) >= need {
		return
	}
	nd := make([]byte, len(b.data), len(b.data)+need)
	copy(nd, b.data)
	b.data = nd
}

// AppendBit appends a single bit.
func (b *Builder) AppendBit(bit bool) {
	if b.n&7 == 0 {
		b.data = append(b.data, 0)
	}
	if bit {
		b.data[b.n>>3] |= 1 << (7 - uint(b.n&7))
	}
	b.n++
}

// AppendUint appends the low `width` bits of v, most significant bit first.
// width must be in [0, 64]; bits of v above width must be zero for the
// round-trip to be exact (they are masked off).
func (b *Builder) AppendUint(v uint64, width int) {
	if width <= 0 {
		return
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	for width > 0 {
		free := 8 - (b.n & 7)
		if free == 8 {
			b.data = append(b.data, 0)
		}
		take := free
		if take > width {
			take = width
		}
		chunk := byte(v >> uint(width-take))
		b.data[b.n>>3] |= chunk << uint(free-take)
		b.n += take
		width -= take
	}
}

// peek64 reads w (<=64) bits starting at bit offset i; the caller
// guarantees i+w <= s.n. The fast path loads 8 bytes at once (plus at most
// one spill byte); the tail path near the end of the buffer accumulates the
// remaining bytes, which is always at most 64 bits.
func (s String) peek64(i, w int) uint64 {
	if w == 0 {
		return 0
	}
	firstByte := i >> 3
	skip := uint(i & 7)
	if firstByte+8 <= len(s.data) {
		be := binary.BigEndian.Uint64(s.data[firstByte:])
		hi := be << skip // wanted bits now at the top, low `skip` bits zeroed
		if 64-skip >= uint(w) {
			return hi >> (64 - uint(w))
		}
		// w > 64-skip: up to 7 bits spill into the next byte.
		r := uint(w) - (64 - skip)
		return hi>>(64-uint(w)) | uint64(s.data[firstByte+8])>>(8-r)
	}
	// Tail: at most 8 bytes remain, so the accumulator cannot overflow.
	var v uint64
	bits := uint(0)
	for b := firstByte; b < len(s.data) && bits < skip+uint(w); b++ {
		v = v<<8 | uint64(s.data[b])
		bits += 8
	}
	v >>= bits - skip - uint(w)
	if w < 64 {
		v &= (1 << uint(w)) - 1
	}
	return v
}

// AppendGamma appends v >= 1 using the Elias gamma code:
// floor(log2 v) zeros, then the binary representation of v.
// Gamma codes use 2*floor(log2 v)+1 bits.
func (b *Builder) AppendGamma(v uint64) error {
	if v == 0 {
		return fmt.Errorf("%w: gamma code requires v >= 1", ErrMalformed)
	}
	nb := bits.Len64(v) // number of binary digits
	for i := 0; i < nb-1; i++ {
		b.AppendBit(false)
	}
	b.AppendUint(v, nb)
	return nil
}

// AppendGamma0 appends any v >= 0 by gamma-coding v+1.
func (b *Builder) AppendGamma0(v uint64) {
	_ = b.AppendGamma(v + 1) // v+1 >= 1 always
}

// AppendDelta appends v >= 1 using the Elias delta code: gamma code of the
// bit length of v, followed by the binary digits of v below the leading one.
func (b *Builder) AppendDelta(v uint64) error {
	if v == 0 {
		return fmt.Errorf("%w: delta code requires v >= 1", ErrMalformed)
	}
	nb := bits.Len64(v)
	if err := b.AppendGamma(uint64(nb)); err != nil {
		return err
	}
	if nb > 1 {
		b.AppendUint(v, nb-1) // drop the leading 1 bit
	}
	return nil
}

// AppendDelta0 appends any v >= 0 by delta-coding v+1.
func (b *Builder) AppendDelta0(v uint64) {
	_ = b.AppendDelta(v + 1)
}

// String freezes the builder contents into an immutable String. The builder
// remains usable; subsequent appends do not affect the returned value.
func (b *Builder) String() String {
	out := make([]byte, len(b.data))
	copy(out, b.data)
	return String{data: out, n: b.n}
}

// Reader is a cursor over a bit string. The zero value reads from the empty
// string. Reader is not safe for concurrent use.
type Reader struct {
	s   String
	pos int
}

// NewReader returns a Reader positioned at the start of s.
func NewReader(s String) *Reader { return &Reader{s: s} }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.n - r.pos }

// Seek repositions the cursor to bit offset pos.
func (r *Reader) Seek(pos int) error {
	if pos < 0 || pos > r.s.n {
		return fmt.Errorf("%w: seek %d of %d", ErrOutOfBounds, pos, r.s.n)
	}
	r.pos = pos
	return nil
}

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (bool, error) {
	b, err := r.s.Bit(r.pos)
	if err != nil {
		return false, err
	}
	r.pos++
	return b, nil
}

// ReadUint consumes width bits (MSB first) and returns them as a uint64.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("%w: width %d", ErrMalformed, width)
	}
	if r.pos+width > r.s.n {
		return 0, fmt.Errorf("%w: need %d bits, have %d", ErrOutOfBounds, width, r.s.n-r.pos)
	}
	v := r.s.peek64(r.pos, width)
	r.pos += width
	return v, nil
}

// ReadGamma consumes an Elias gamma code.
func (r *Reader) ReadGamma() (uint64, error) {
	zeros := 0
	for {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if bit {
			break
		}
		zeros++
		if zeros > 64 {
			return 0, fmt.Errorf("%w: gamma prefix too long", ErrMalformed)
		}
	}
	// We consumed the leading 1 of the binary part already.
	rest, err := r.ReadUint(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

// ReadGamma0 consumes a gamma code written by AppendGamma0.
func (r *Reader) ReadGamma0() (uint64, error) {
	v, err := r.ReadGamma()
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

// ReadDelta consumes an Elias delta code.
func (r *Reader) ReadDelta() (uint64, error) {
	nb, err := r.ReadGamma()
	if err != nil {
		return 0, err
	}
	if nb == 0 || nb > 64 {
		return 0, fmt.Errorf("%w: delta length %d", ErrMalformed, nb)
	}
	if nb == 1 {
		return 1, nil
	}
	rest, err := r.ReadUint(int(nb - 1))
	if err != nil {
		return 0, err
	}
	return 1<<(nb-1) | rest, nil
}

// ReadDelta0 consumes a delta code written by AppendDelta0.
func (r *Reader) ReadDelta0() (uint64, error) {
	v, err := r.ReadDelta()
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

// WidthFor returns the number of bits needed to represent values in [0, n),
// i.e. ceil(log2 n), with WidthFor(0) == WidthFor(1) == 0.
func WidthFor(n uint64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(n - 1)
}

// GammaLen returns the length in bits of the gamma code of v >= 1.
func GammaLen(v uint64) int {
	nb := bits.Len64(v)
	return 2*nb - 1
}

// DeltaLen returns the length in bits of the delta code of v >= 1.
func DeltaLen(v uint64) int {
	nb := bits.Len64(v)
	return GammaLen(uint64(nb)) + nb - 1
}
