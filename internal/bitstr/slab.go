package bitstr

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Slab support: many labels packed back to back into one caller-owned byte
// slab, each label starting on a byte, and only the slab's tail padded, to a
// whole 64-bit word. The slab stores bits MSB-first within each 8-byte
// big-endian word, which makes the byte order identical to the
// MSB-first-within-byte order of String — so a (byte offset, bit length)
// window of a slab is a valid String view via Wrap, while word-sized reads
// and writes go through single 64-bit loads and stores.
//
// Labels share words, not bytes: a label's last byte holds its padding bits
// and nothing of the next label. That is what lets distinct goroutines fill
// adjacent labels (SlabWriter stores only bytes of the label it writes), and
// the padded tail is what keeps every word read inside the slab (SlabWalk
// refuses a label whose last 64-bit word would run past it).
//
// This layout is shared by three consumers: core's encode pipeline writes
// labels directly into a slab (no per-label allocation), core.QueryEngine
// adopts a slab zero-copy as its probe arena, and labelstore's format v3
// round-trips the slab as one body blob.

// SlabLabelBytes returns the number of bytes a label of nBits occupies in a
// slab: labels start on a byte, so only its last byte carries padding.
func SlabLabelBytes(nBits int) int { return (nBits + 7) >> 3 }

// SlabSize returns the size of a slab whose labels occupy labelBytes bytes:
// the tail padded to a whole 64-bit word.
func SlabSize(labelBytes int) int { return (labelBytes + 7) &^ 7 }

// SlabView wraps the label occupying bits [off, off+nBits) of slab as a
// zero-copy String. off must be byte-aligned (a slab label start).
func SlabView(slab []byte, off int64, nBits int) (String, error) {
	if off < 0 || off&7 != 0 {
		return String{}, fmt.Errorf("%w: slab view at unaligned bit %d", ErrMalformed, off)
	}
	start := int(off >> 3)
	end := start + SlabLabelBytes(nBits)
	if nBits < 0 || end > len(slab) {
		return String{}, fmt.Errorf("%w: slab view [%d,%d) of %d bytes", ErrOutOfBounds, start, end, len(slab))
	}
	return Wrap(slab[start:end:end], nBits)
}

// SlabLabel returns the zero-copy view of the label occupying bits
// [off, off+nBits) of slab without masking the final byte, touching no slab
// memory — safe over read-only mappings and under concurrent readers. The
// caller vouches for the geometry (off byte-aligned, the label inside the
// slab, e.g. an offset a SlabWalk handed out) and for zero padding bits,
// which every SlabWriter-built slab has (Flush stores the label's last byte
// with a zero tail, untouched bytes stay zero-initialized); dirty padding
// would break String equality, so bytes of unknown origin go through
// SlabView, which masks in place.
func SlabLabel(slab []byte, off int64, nBits int) String {
	start := int(off >> 3)
	end := start + SlabLabelBytes(nBits)
	return String{data: slab[start:end:end], n: nBits}
}

// PackSlab copies labels into a fresh slab, back to back in label order, and
// returns it with the per-label bit lengths: the id-ordered (slab, bitLens)
// description SlabWalk validates and engines and stores adopt. A String's
// bytes are already MSB-first with zero padding, so each label is one copy.
// It is how a labeling assembled label by label joins the slab path.
func PackSlab(labels []String) (slab []byte, bitLens []int) {
	bitLens = make([]int, len(labels))
	size := 0
	for v, s := range labels {
		bitLens[v] = s.n
		size += SlabLabelBytes(s.n)
	}
	slab = make([]byte, SlabSize(size))
	at := 0
	for _, s := range labels {
		at += copy(slab[at:at+SlabLabelBytes(s.n)], s.data)
	}
	return slab, bitLens
}

// SlabWalk is the one validated pass over a label slab: it visits the labels
// in physical order, handing out for each rank the label number stored there
// and the bit offset of its byte-aligned start, and checks on the way
// everything a consumer relies on before touching the slab — order (nil is
// the identity) is a permutation of 0..len(bitLens)-1, every bit length is
// non-negative, and every label lies inside the slab together with the
// 64-bit word its last bit sits in, so that a SlabReadBits anywhere in a
// label stays inside the slab even when the slab is not a whole number of
// words. Encoder output, store files and shard arenas all describe a slab as
// (slab, bitLens, order), bitLens indexed by label number whatever the
// physical order; engines, stores and the shard split all read it through
// this walk.
//
//	w := bitstr.NewSlabWalk(len(slab), bitLens, order)
//	for w.Next() {
//		v, off := w.Label() // bitLens[v] bits at bit off
//	}
//	if err := w.Err(); err != nil { ... }
//
// The walk never reads or writes the slab itself.
type SlabWalk struct {
	bitLens []int
	order   []int32
	seen    []uint64 // labels visited so far; nil under the identity order
	limit   int64    // slab size in bits
	r, v    int
	off     int64 // start of label v
	end     int64 // start of the next rank's label
	err     error
}

// NewSlabWalk starts a walk over a slab of slabBytes bytes.
func NewSlabWalk(slabBytes int, bitLens []int, order []int32) SlabWalk {
	w := SlabWalk{bitLens: bitLens, order: order, limit: int64(slabBytes) << 3}
	if order != nil {
		if len(order) != len(bitLens) {
			w.err = fmt.Errorf("%w: layout permutation of %d entries over %d labels", ErrMalformed, len(order), len(bitLens))
		}
		w.seen = make([]uint64, (len(bitLens)+63)>>6)
	}
	return w
}

// Next advances to the next rank; it returns false at the end of the slab or
// at the first violation, which Err then reports.
func (w *SlabWalk) Next() bool {
	n := len(w.bitLens)
	if w.err != nil || w.r == n {
		return false
	}
	v := w.r
	if w.order != nil {
		v = int(w.order[w.r])
		if v < 0 || v >= n {
			w.err = fmt.Errorf("%w: layout permutation entry %d = %d of %d labels", ErrMalformed, w.r, w.order[w.r], n)
			return false
		}
		if w.seen[v>>6]&(1<<uint(v&63)) != 0 {
			w.err = fmt.Errorf("%w: layout permutation repeats label %d at rank %d", ErrMalformed, v, w.r)
			return false
		}
		w.seen[v>>6] |= 1 << uint(v&63)
	}
	// bits is bounded by the room left before any arithmetic on it, so a
	// hostile length cannot overflow the end of its last word.
	bits := w.bitLens[v]
	if bits < 0 || int64(bits) > w.limit-w.end || bits > 0 && (w.end+int64(bits)+63)&^63 > w.limit {
		w.err = fmt.Errorf("%w: slab label %d of %d bits at byte %d runs past the last whole word of a %d-byte slab",
			ErrOutOfBounds, v, bits, w.end>>3, w.limit>>3)
		return false
	}
	w.v, w.off = v, w.end
	w.end += int64(SlabLabelBytes(bits)) << 3
	w.r++
	return true
}

// Label returns the label number at the current rank and its bit offset.
func (w *SlabWalk) Label() (v int, off int64) { return w.v, w.off }

// Err returns the violation that stopped the walk, if any.
func (w *SlabWalk) Err() error { return w.err }

// Tiled reports, after a walk that ran to its end, whether the labels and
// the tail padding that rounds them to a whole word occupy the slab exactly;
// if not it returns the error a store reports. Engines tolerate trailing
// bytes, stores do not.
func (w *SlabWalk) Tiled() error {
	if size := int64(SlabSize(int(w.end >> 3))); w.err == nil && size<<3 != w.limit {
		return fmt.Errorf("%w: labels occupy %d bytes, %d with the tail padded to a word, of %d slab bytes",
			ErrMalformed, w.end>>3, size, w.limit>>3)
	}
	return w.err
}

// SlabSetBit sets bit pos of the slab to 1 in place — the word-free OR store
// used for fat adjacency bitmaps, whose bit positions are computed rather
// than appended. The surrounding byte must already be materialized (slabs
// are zero-initialized, so any position inside an allocated label is valid);
// it is read and written whole, and belongs to one label.
func SlabSetBit(slab []byte, pos int64) {
	slab[pos>>3] |= 1 << (7 - uint(pos&7))
}

// SlabReadBits returns w (1..64) bits of the slab starting at bit offset
// off, MSB first, with at most two loads of the slab's 64-bit words. The
// caller guarantees [off, off+w) lies inside a label a SlabWalk accepted:
// the walk refuses a label whose last word would run past the slab, so a
// read never runs past the backing slice (a read crossing into word i+1
// ends inside a label whose last word is at least i+1). This is the single
// probe primitive of the query engine.
func SlabReadBits(slab []byte, off int64, w int) uint64 {
	i := int(off>>6) << 3
	sh := uint(off & 63)
	v := binary.BigEndian.Uint64(slab[i:]) << sh
	if sh+uint(w) > 64 {
		v |= binary.BigEndian.Uint64(slab[i+8:]) >> (64 - sh)
	}
	return v >> (64 - uint(w))
}

// IDBlockField returns field i of a block of w-bit fields back to back, MSB
// first, the last byte's tail zero — as a SlabWriter writes them (WriteUint
// or WriteUints32, then Flush). The run fields of core's permutation block
// are one. For w <= 57 the field lies within the eight bytes from its first;
// near the end of the block the missing ones read as zero.
func IDBlockField(block []byte, i int, w uint) int {
	off := uint(i) * w
	var word uint64
	if j := off >> 3; j+8 <= uint(len(block)) {
		word = binary.BigEndian.Uint64(block[j:])
	} else {
		var tail [8]byte
		copy(tail[:], block[j:])
		word = binary.BigEndian.Uint64(tail[:])
	}
	return int(word << (off & 7) >> (64 - w))
}

// SlabWriter writes bit strings into a borrowed slab through a byte cursor:
// it buffers up to 64 bits and stores them as one big-endian 64-bit word
// once all 64 belong to the label being written, instead of the
// byte-at-a-time append-and-double of Builder. One writer serves any number
// of labels; SeekBit repositions it to the next label's byte-aligned start,
// and Flush stores only that label's final bytes. So a writer never stores
// to a byte of another label, and distinct goroutines may fill disjoint
// labels of the same slab with separate writers — even where two labels
// share a 64-bit word.
//
// The writer assumes the slab is zero-initialized and that each label is
// written at most once (stores overwrite whole bytes).
type SlabWriter struct {
	slab []byte
	at   int    // byte offset the buffer will be stored to
	acc  uint64 // bits buffered so far, left-aligned
	fill uint   // number of buffered bits
}

// NewSlabWriter returns a writer over slab, positioned at bit 0.
func NewSlabWriter(slab []byte) *SlabWriter {
	return &SlabWriter{slab: slab}
}

// SeekBit positions the writer at bit offset pos, which must be
// byte-aligned (labels start on bytes). Buffered bits of the previous label
// are flushed first.
func (w *SlabWriter) SeekBit(pos int64) {
	w.Flush()
	w.at = int(pos >> 3)
}

// Pos returns the absolute bit offset the next write lands at.
func (w *SlabWriter) Pos() int64 {
	return int64(w.at)<<3 + int64(w.fill)
}

// WriteBit appends a single bit.
func (w *SlabWriter) WriteBit(bit bool) {
	if bit {
		w.WriteUint(1, 1)
	} else {
		w.WriteUint(0, 1)
	}
}

// WriteUint appends the low `width` bits of v, most significant bit first.
// width must be in [0, 64]; bits of v above width are masked off.
func (w *SlabWriter) WriteUint(v uint64, width int) {
	if width <= 0 {
		return
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	if w.fill+uint(width) < 64 {
		w.acc |= v << (64 - w.fill - uint(width))
		w.fill += uint(width)
		return
	}
	spill := w.fill + uint(width) - 64
	binary.BigEndian.PutUint64(w.slab[w.at:], w.acc|v>>spill)
	w.at += 8
	w.acc, w.fill = 0, 0
	if spill > 0 {
		w.acc = v << (64 - spill)
		w.fill = spill
	}
}

// WriteUints32 appends every value of vs (non-negative 32-bit values) at the
// given width, equivalent to calling WriteUint per element but with the
// buffer state kept in registers across the whole batch — the packed-store
// fast path for thin neighbor lists, where one call writes an entire label
// body. The encode pipeline's identifiers are int32, and packing them
// without a widening copy keeps the fill loop to one pass over the id lists.
func (w *SlabWriter) WriteUints32(vs []int32, width int) {
	if width <= 0 || width > 64 {
		return
	}
	mask := ^uint64(0) >> uint(64-width)
	acc, fill, at, slab := w.acc, w.fill, w.at, w.slab
	for _, x := range vs {
		v := uint64(uint32(x)) & mask
		if fill+uint(width) < 64 {
			acc |= v << (64 - fill - uint(width))
			fill += uint(width)
			continue
		}
		spill := fill + uint(width) - 64
		binary.BigEndian.PutUint64(slab[at:], acc|v>>spill)
		at += 8
		acc, fill = 0, 0
		if spill > 0 {
			acc = v << (64 - spill)
			fill = spill
		}
	}
	w.acc, w.fill, w.at = acc, fill, at
}

// WriteDelta0 appends v >= 0 as the Elias delta code of v+1, bit-identical
// to Builder.AppendDelta0.
func (w *SlabWriter) WriteDelta0(v uint64) {
	v++
	nb := bits.Len64(v)
	gnb := bits.Len64(uint64(nb))
	// Gamma code of nb: gnb-1 leading zeros then nb in gnb bits — exactly nb
	// written in 2·gnb-1 bits.
	w.WriteUint(uint64(nb), 2*gnb-1)
	if nb > 1 {
		w.WriteUint(v, nb-1) // drop the leading 1 bit (masked by width)
	}
}

// Flush stores the buffered bits as the label's final bytes, the last one
// with a zero tail, and stores nothing after them: the next byte may be
// another label's. Flush is idempotent; call it after each label.
func (w *SlabWriter) Flush() {
	for n := (w.fill + 7) >> 3; n > 0; n-- {
		w.slab[w.at] = byte(w.acc >> 56)
		w.acc <<= 8
		w.at++
	}
	w.acc, w.fill = 0, 0
}
