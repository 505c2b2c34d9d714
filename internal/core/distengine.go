package core

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// DistEngine is the distance-plane counterpart of QueryEngine: built once
// over a DistArena (or a distance label store), it answers Dist(u, v) with
// no Reader, no re-parsing and zero heap allocations on the hot path.
//
// Two kernels, selected by the arena's DistKind:
//
//   - DistPLL: a min-sum over the hubs the two sorted hub lists share.
//     Construction decodes every label's δ-gap hub ranks and fixed-width
//     distances once into one compact hub record per vertex (hubRecords): a
//     bitmap over the pllHeadHubs top-ranked hubs with their distances, then
//     the rest of the list as rank<<dw|dist words. A query ANDs the two
//     bitmaps and scatters only the shorter tail into a rank-indexed scratch
//     to probe it with the longer (hubRecords.probe); it never reads the
//     slab. Answers are the minimum summed distance over the shared hubs, the
//     exact distance of a 2-hop cover; unreachable pairs return -1
//     (graph.Unreachable).
//   - DistBounded: Lemma 7's decode straight from the slab —
//     the minimum over fat-hub relays (both fixed-width fat tables walked in
//     lockstep with distance.Decoder's early-out) plus, for thin-thin pairs,
//     a binary search of each sorted thin list. Distances beyond the bound f
//     return -1 (distance.Beyond, numerically the same sentinel).
//
// Every label is fully validated at construction — entry lists must stay in
// bounds, strictly sorted, and tile their label exactly — so the hot path
// never errors and never reads outside the slab or the records on any engine
// that construction accepted (FuzzDistEngineHeaders leans on exactly this).
// Like QueryEngine, a DistEngine is immutable after construction and safe
// for concurrent use; metrics attach before sharing.
type DistEngine struct {
	kind DistKind
	n    int
	w    int // identifier width (pll: min 1; bdist: exact ceil(log2 n))
	wCnt int // pll entry-count width
	dw   int // distance field width
	f    int // bdist bound
	nFat int // bdist fat-table width
	// meta reuses QueryEngine's packed header record for a bdist engine:
	// word packs id<<32 | cnt<<1 | fat with cnt the thin-list entry count,
	// and off is the slab bit offset of the label body (the fat table). A
	// PLL engine has none: its ids live in its hub records.
	meta []vertexMeta
	slab []byte
	// A PLL engine's hub records, in 32-bit words when a tail entry
	// rank<<dw|dist fits 32 bits and in 64-bit words otherwise; exactly one
	// is set, both are nil for bdist.
	pll32 *hubRecords[uint32]
	pll64 *hubRecords[uint64]
	// scratch pools the PLL queries' rank scratches (*rankScratch); bdist
	// engines never take one.
	scratch sync.Pool
	// engineMetrics is the shared attachment (batch.go). Distance queries
	// tally the branch that resolved them: self for equal identifiers, fat
	// when a bdist query had a fat endpoint, thin for thin-thin bdist pairs
	// and every PLL hub-list probe.
	engineMetrics
}

// NewDistEngine adopts a pipeline-encoded DistArena zero-copy.
func NewDistEngine(a *DistArena) (*DistEngine, error) {
	return NewDistEngineFromArena(a.Slab, a.BitLens, a.Order, a.Params)
}

// NewDistEngineFromArena builds an engine over a distance label slab (label
// at rank r holds vertex order[r], nil order is the identity — the same
// permuted-arena contract as NewQueryEngineFromPermutedArena). The slab is
// adopted zero-copy; construction parses and validates every label, so a
// corrupt or truncated store errors here rather than at query time.
func NewDistEngineFromArena(slab []byte, bitLens []int, order []int32, p DistParams) (*DistEngine, error) {
	n := len(bitLens)
	if n == 0 {
		return nil, fmt.Errorf("%w: distance engine over zero labels", ErrBadLabel)
	}
	if err := p.Validate(n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	e := &DistEngine{kind: p.Kind, n: n, dw: p.DW, f: p.F, nFat: p.NFat, slab: slab}
	if p.Kind == DistPLL {
		e.w, e.wCnt, _ = pllWidths(n, 0)
	} else {
		e.w = bitstr.WidthFor(uint64(n))
	}
	if e.w > 32 {
		return nil, fmt.Errorf("%w: %d labels need id width %d, engine packs ids in 32 bits", ErrBadLabel, n, e.w)
	}
	if e.kind == DistPLL {
		return e, e.buildPLL(bitLens, order)
	}
	e.meta = make([]vertexMeta, n)
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	for walk.Next() {
		v, off := walk.Label()
		if err := e.validateBounded(v, off, int64(bitLens[v])); err != nil {
			return nil, err
		}
	}
	if err := walk.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	return e, nil
}

// pllHeadHubs is how many top-ranked hubs a PLL hub record keeps as a bitmap
// with distances only: in a power-law graph most hub entries, and almost
// every pair's nearest common hub, sit in this head (DESIGN, PLL query
// kernel).
const pllHeadHubs = 256

// hubWord is the word a PLL engine's hub records are made of.
type hubWord interface{ ~uint32 | ~uint64 }

// hubRecords holds every PLL label's decoded hub list, one record per
// vertex, record after record in slab order:
//
//	[tail] [id] [tail count] [bitmap: pllHeadHubs bits] [head distances]
//
// with off pointing at the id. The tail is every hub of rank pllHeadHubs and
// above, one rank<<dw | dist word each, ascending; the bitmap marks the
// vertex's hubs of rank below pllHeadHubs, bit r for rank r, low bits of
// low words first; the head distances follow in rank order, one byte each in 32-bit records
// and 32 bits each in 64-bit ones (headLog), the last word zero-padded. A
// head distance never straddles a word and its width is a constant of the
// instantiation, so a read is one load and one shift. The tail sits before
// the header so that both parts start at offsets the header gives, with no
// count of the bitmap's bits, and the head distances share the bitmap's
// cache lines.
type hubRecords[T hubWord] struct {
	off   []uint32 // the id word of vertex v's record
	words []T
	dw    uint // distance field width
}

// pllCursor walks one PLL label's δ-coded entries with every read checked
// against the label's end: ranks must be strictly increasing and below n.
type pllCursor struct {
	slab     []byte
	pos, end int64
	v, i     int
	rank, n  uint64
	dw       int
}

// next decodes the cursor's next entry; ok is false, and the cursor stays
// on the entry for err to describe, if it is malformed.
func (c *pllCursor) next() (rank, dist uint64, ok bool) {
	buf, avail := slabWindow(c.slab, c.pos, c.end)
	gap, wd, ok := deltaChecked(buf, avail)
	rank = c.rank + gap
	dw := int64(c.dw)
	if !ok || rank >= c.n || (c.i > 0 && gap == 0) || wd+dw > avail {
		return 0, 0, false
	}
	if wd+dw <= 64 {
		dist = buf << uint(wd) >> uint(64-dw) // the code's window holds it
	} else {
		dist = bitstr.SlabReadBits(c.slab, c.pos+wd, c.dw)
	}
	c.rank, c.pos, c.i = rank, c.pos+wd+dw, c.i+1
	return rank, dist, true
}

// err describes the malformed entry next refused.
func (c *pllCursor) err() error {
	gap, _, ok := slabReadDeltaChecked(c.slab, c.pos, c.end)
	switch rank := c.rank + gap; {
	case !ok:
		return fmt.Errorf("%w: pll label %d entry %d: bad rank gap code", ErrBadLabel, c.v, c.i)
	case rank >= c.n || (c.i > 0 && gap == 0):
		return fmt.Errorf("%w: pll label %d entry %d: rank %d of %d", ErrBadLabel, c.v, c.i, rank, c.n)
	default:
		return fmt.Errorf("%w: pll label %d entry %d: distance past label end", ErrBadLabel, c.v, c.i)
	}
}

// pllLabel parses the header of label v at slab bit off spanning lbits bits
// and returns its id, its entry count and a cursor at its first entry. A
// well-formed entry is at least 1 (delta0 of gap 0) + dw bits, so a count
// beyond that bound cannot tile the label; refusing it here bounds the
// records buildPLL allocates by the slab's size.
func (e *DistEngine) pllLabel(v int, off int64, lbits int) (id uint64, cnt int, c pllCursor, err error) {
	header := int64(e.w + e.wCnt)
	if int64(lbits) < header {
		return 0, 0, c, fmt.Errorf("%w: pll label %d has %d bits, header needs %d", ErrBadLabel, v, lbits, header)
	}
	id = bitstr.SlabReadBits(e.slab, off, e.w)
	n := bitstr.SlabReadBits(e.slab, off+int64(e.w), e.wCnt)
	if body := int64(lbits) - header; n > uint64(body)/uint64(1+e.dw) || n > 1<<31-1 {
		return 0, 0, c, fmt.Errorf("%w: pll label %d declares %d entries in %d body bits", ErrBadLabel, v, n, body)
	}
	c = pllCursor{slab: e.slab, pos: off + header, end: off + int64(lbits), v: v, n: uint64(e.n), dw: e.dw}
	return id, int(n), c, nil
}

// buildPLL builds the engine's hub records: in 32-bit words when a tail
// entry fits one and a distance fits a byte (headLog), else in 64-bit ones.
func (e *DistEngine) buildPLL(bitLens []int, order []int32) (err error) {
	if e.w+e.dw <= 32 && e.dw <= 8 {
		e.pll32, err = buildRecords[uint32](e, bitLens, order)
	} else {
		e.pll64, err = buildRecords[uint64](e, bitLens, order)
	}
	n := e.n
	e.scratch.New = func() any { return &rankScratch{slot: make([]uint32, n)} }
	return err
}

// buildRecords decodes the slab into hub records in two walks: the first
// parses every header and decodes each label's head, which sizes its
// record; the second — over the one allocation of exactly the records'
// words — decodes every entry into them. Every read is checked, so a
// malformed label errors in one walk or the other.
func buildRecords[T hubWord](e *DistEngine, bitLens []int, order []int32) (*hubRecords[T], error) {
	lg, hl := wordLog[T](), headLog[T]()
	off := make([]uint32, e.n)
	total := uint64(0)
	walk := bitstr.NewSlabWalk(len(e.slab), bitLens, order)
	for walk.Next() {
		v, pos := walk.Label()
		_, cnt, c, err := e.pllLabel(v, pos, bitLens[v])
		if err != nil {
			return nil, err
		}
		// Ranks ascend: the head ends at the first tail entry.
		head := 0
		for head < cnt {
			rank, _, ok := c.next()
			if !ok {
				return nil, c.err()
			}
			if rank >= pllHeadHubs {
				break
			}
			head++
		}
		tail := cnt - head
		if total+uint64(tail) >= 1<<32 {
			return nil, fmt.Errorf("%w: pll hub records past 2^32 words", ErrBadLabel)
		}
		off[v] = uint32(total) + uint32(tail)
		total += uint64(tail + 2 + pllHeadHubs>>lg + (head<<hl+1<<lg-1)>>lg)
	}
	if err := walk.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	h := &hubRecords[T]{off: off, words: make([]T, total), dw: uint(e.dw)}
	return h, fillRecords(e, h, bitLens, order)
}

// fillRecords is buildRecords' second walk: it decodes every label again into
// its record in h, checking what the first walk did not read — the tail
// past its first entry and the label's exact end.
func fillRecords[T hubWord](e *DistEngine, h *hubRecords[T], bitLens []int, order []int32) error {
	lg := wordLog[T]()
	bw := pllHeadHubs >> lg
	walk := bitstr.NewSlabWalk(len(e.slab), bitLens, order)
	for walk.Next() {
		v, pos := walk.Label()
		id, cnt, c, err := e.pllLabel(v, pos, bitLens[v])
		if err != nil {
			return err
		}
		rec := h.words[h.off[v]:]
		rec[0] = T(id)
		dists := rec[2+bw:]
		head := 0
		for i := range cnt {
			rank, dist, ok := c.next()
			if !ok {
				return c.err()
			}
			if rank < pllHeadHubs {
				rec[2+rank>>lg] |= 1 << (rank & (1<<lg - 1))
				setHead(dists, uint(head), dist)
				head++
				continue
			}
			// Ranks ascend, so the head is complete at the first tail entry.
			h.words[int(h.off[v])-(cnt-i)] = T(rank<<h.dw | dist)
		}
		if c.pos != c.end {
			return fmt.Errorf("%w: pll label %d: %d trailing bits after %d entries", ErrBadLabel, v, c.end-c.pos, cnt)
		}
		rec[1] = T(cnt - head)
	}
	return walk.Err()
}

// wordLog is log2 of T's width in bits, a constant in each instantiation.
func wordLog[T hubWord]() uint {
	if uint64(^T(0)) > 1<<32-1 {
		return 6
	}
	return 5
}

// bitmapWord returns bits 64k to 64k+63 of a record's head bitmap m.
func bitmapWord[T hubWord](m []T, k int) uint64 {
	if wordLog[T]() == 6 {
		return uint64(m[k])
	}
	return uint64(m[2*k]) | uint64(m[2*k+1])<<32
}

// headLog is log2 of a head distance's width in bits: a byte in 32-bit
// records, which buildPLL picks only for distances of at most 8 bits, 32
// bits in 64-bit ones.
func headLog[T hubWord]() uint { return 2*wordLog[T]() - 7 }

// setHead overwrites head distance i in dists.
func setHead[T hubWord](dists []T, i uint, val uint64) {
	p := i << headLog[T]()
	k, sh := p>>wordLog[T](), p&(1<<wordLog[T]()-1)
	mask := uint64(1)<<(1<<headLog[T]()) - 1
	dists[k] = dists[k]&^T(mask<<sh) | T(val<<sh)
}

// headDist reads head distance i in dists: one load, one shift.
func headDist[T hubWord](dists []T, i uint) uint64 {
	if wordLog[T]() == 5 {
		return uint64(dists[i>>2] >> (i & 3 << 3) & 0xff)
	}
	return uint64(dists[i>>1] >> (i & 1 << 5) & (1<<32 - 1))
}

// validateBounded checks a Lemma 7 label: exact fat length, thin list
// tiling, and strictly ascending in-range thin ids (the binary search's
// precondition — and what makes it answer identically to distance.Decoder's
// linear scan).
func (e *DistEngine) validateBounded(v int, off, lbits int64) error {
	header := int64(1 + e.w)
	listOff := header + int64(e.nFat*e.dw)
	if lbits < listOff {
		return fmt.Errorf("%w: bdist label %d has %d bits, fat table needs %d", ErrBadLabel, v, lbits, listOff)
	}
	fat := bitstr.SlabReadBits(e.slab, off, 1) == 1
	var id uint64
	if e.w > 0 {
		id = bitstr.SlabReadBits(e.slab, off+1, e.w)
	}
	cnt := uint64(0)
	if fat {
		if lbits != listOff {
			return fmt.Errorf("%w: bdist fat label %d of %d bits, want %d", ErrBadLabel, v, lbits, listOff)
		}
	} else {
		body := lbits - listOff
		stride := int64(e.w + e.dw)
		if body%stride != 0 {
			return fmt.Errorf("%w: bdist label %d thin list of %d bits", ErrBadLabel, v, body)
		}
		cnt = uint64(body / stride)
		if cnt > 1<<31-1 {
			return fmt.Errorf("%w: bdist label %d thin list of %d entries", ErrBadLabel, v, cnt)
		}
		prev := int64(-1)
		for i := int64(0); i < int64(cnt); i++ {
			tid := int64(0)
			if e.w > 0 {
				tid = int64(bitstr.SlabReadBits(e.slab, off+listOff+i*stride, e.w))
			}
			if tid <= prev || tid >= int64(e.n) {
				return fmt.Errorf("%w: bdist label %d thin entry %d: id %d after %d of %d", ErrBadLabel, v, i, tid, prev, e.n)
			}
			prev = tid
		}
	}
	word := id<<32 | cnt<<1
	if fat {
		word |= 1
	}
	e.meta[v] = vertexMeta{off: off + header, word: word}
	return nil
}

// slabReadDeltaChecked decodes one Elias delta0 code at bit pos, refusing to
// read at or past bit end: it returns the decoded value, the code width in
// bits, and ok=false for any code that is malformed, oversized (values are
// vertex ranks, so 32 bits at most), or runs past end. Used only at
// construction: queries read the decoded hub records.
func slabReadDeltaChecked(slab []byte, pos, end int64) (val uint64, width int64, ok bool) {
	buf, avail := slabWindow(slab, pos, end)
	return deltaChecked(buf, avail)
}

// slabWindow returns the (at most 64) bits from pos up to end, most
// significant first and left-aligned, and how many bits lie before end.
func slabWindow(slab []byte, pos, end int64) (buf uint64, avail int64) {
	avail = end - pos
	if avail <= 0 {
		return 0, avail
	}
	peek := min(avail, 64)
	return bitstr.SlabReadBits(slab, pos, int(peek)) << uint(64-peek), avail
}

// deltaChecked is slabReadDeltaChecked over a window from slabWindow.
func deltaChecked(buf uint64, avail int64) (val uint64, width int64, ok bool) {
	if avail <= 0 {
		return 0, 0, false
	}
	z := bits.LeadingZeros64(buf)
	// gamma(nb): z zeros then nb in z+1 bits; values fit 33 bits (rank+1 for
	// ranks below 2^32), so nb <= 33 and z <= 5.
	if z > 5 || int64(2*z+1) > avail {
		return 0, 0, false
	}
	nb := int(buf << uint(z) >> uint(64-(z+1)))
	if nb < 1 || nb > 33 {
		return 0, 0, false
	}
	width = int64(2*z + 1 + nb - 1)
	if width > avail {
		return 0, 0, false
	}
	v := uint64(1) << uint(nb-1)
	if nb > 1 {
		v |= buf << uint(2*z+1) >> uint(64-(nb-1))
	}
	return v - 1, width, true
}

// N returns the number of vertices the engine serves.
func (e *DistEngine) N() int { return e.n }

// Kind returns the engine's distance scheme kind.
func (e *DistEngine) Kind() DistKind { return e.kind }

// F returns the distance bound of a DistBounded engine (0 for DistPLL).
func (e *DistEngine) F() int { return e.f }

// HubTableBytes returns the heap a DistPLL engine holds in its hub records
// and their offsets beyond the slab it adopted (0 for DistBounded, which
// queries the slab itself).
func (e *DistEngine) HubTableBytes() int {
	if h := e.pll32; h != nil {
		return 4*len(h.off) + 4*len(h.words)
	}
	if h := e.pll64; h != nil {
		return 4*len(h.off) + 8*len(h.words)
	}
	return 0
}

// Dist answers a distance query between vertices u and v: the exact hop
// distance, or -1 when unreachable (DistPLL) or beyond the bound f
// (DistBounded), numerically distance.Beyond. It is allocation-free once the
// scratch pool is warm; a DistBounded engine answers bit-for-bit identically
// to distance.Decoder.Dist over the same labels.
func (e *DistEngine) Dist(u, v int) (int, error) {
	s := e.takeScratch()
	defer e.releaseScratch(s)
	var t QueryTally
	d, err := e.distTallied(u, v, s, &t)
	e.flush(&t)
	return d, err
}

// rankScratch is a PLL query's scatter target, one slot per hub rank. A slot
// holds ^dist while the query runs and is zero between queries, so the zero
// value — a fresh make included — reads as "no such hub" (see distPLL).
type rankScratch struct{ slot []uint32 }

// takeScratch takes a clean rank scratch from the pool for one Dist or
// DistSpan call; nil on a bdist engine, whose kernel needs none.
func (e *DistEngine) takeScratch() *rankScratch {
	if e.kind != DistPLL {
		return nil
	}
	return e.scratch.Get().(*rankScratch)
}

// releaseScratch returns a scratch takeScratch gave out; nil is a no-op.
func (e *DistEngine) releaseScratch(s *rankScratch) {
	if s != nil {
		e.scratch.Put(s)
	}
}

// distTallied is the scalar probe path: one query against the labels, branch
// tallies into t.
func (e *DistEngine) distTallied(u, v int, s *rankScratch, t *QueryTally) (int, error) {
	if uint(u) >= uint(e.n) || uint(v) >= uint(e.n) {
		return 0, fmt.Errorf("%w: (%d,%d) of %d", ErrVertexRange, u, v, e.n)
	}
	t.queries++
	if h := e.pll32; h != nil {
		return h.probe(u, v, s.slot, t), nil
	}
	if h := e.pll64; h != nil {
		return h.probe(u, v, s.slot, t), nil
	}
	mu, mv := e.meta[u], e.meta[v]
	if mu.id() == mv.id() {
		t.self++
		return 0, nil
	}
	if mu.fat() || mv.fat() {
		t.fat++
	} else {
		t.thin++
	}
	return e.distBounded(mu, mv), nil
}

// probe returns the minimum summed distance over the hubs u's and v's
// records share — the exact distance, 0 for equal ids: shared head hubs are
// the set bits of the two bitmaps' AND (headMin), and only the tails go
// through the rank scratch (tailMin).
func (h *hubRecords[T]) probe(u, v int, slot []uint32, t *QueryTally) int {
	a, b := h.words[h.off[u]:], h.words[h.off[v]:]
	if a[0] == b[0] {
		t.self++
		return 0
	}
	t.thin++
	// A slot holds ^dist, so an empty (zero) slot reads back as 1<<32-1 and
	// its sum with any distance is at least 1<<32-1, above inf. A stored
	// distance of 1<<32-1 is indistinguishable from no hub, and reads back as
	// itself either way. Sums of 1<<30 and more count as no common hub.
	const inf = 1 << 30
	best := headMin(a, b, inf)
	// The tails end at the offsets. Swapping the plain integers, not the
	// slices, lets the compiler pick the shorter without a branch.
	ea, na, eb, nb := h.off[u], uint32(a[1]), h.off[v], uint32(b[1])
	if na > nb {
		ea, na, eb, nb = eb, nb, ea, na
	}
	if na > 0 {
		best = tailMin(h.words[ea-na:ea], h.words[eb-nb:eb], h.dw, slot, best)
	}
	if best == inf {
		return graph.Unreachable
	}
	return int(best)
}

// headMin folds into best the sums over the head hubs records a and b
// share: the set bits of their bitmaps' AND, each hub's distance at its
// bit's rank among its bitmap's set bits. Bitmap word 0, the 64 top hubs,
// holds almost every shared hub and needs no running count, so it is done
// here; words 1 to 3 go to headRest only when one of them has a shared hub
// (in process ≈ 5–10 % faster than one loop over all four words).
func headMin[T hubWord](a, b []T, best uint64) uint64 {
	bw := pllHeadHubs >> wordLog[T]()
	ma, mb, da, db := a[2:2+bw], b[2:2+bw], a[2+bw:], b[2+bw:]
	wa, wb := bitmapWord(ma, 0), bitmapWord(mb, 0)
	for m := wa & wb; m != 0; m &= m - 1 {
		below := m&-m - 1
		ia, ib := uint(bits.OnesCount64(wa&below)), uint(bits.OnesCount64(wb&below))
		best = min(best, headDist(da, ia)+headDist(db, ib))
	}
	if bitmapWord(ma, 1)&bitmapWord(mb, 1)|bitmapWord(ma, 2)&bitmapWord(mb, 2)|bitmapWord(ma, 3)&bitmapWord(mb, 3) != 0 {
		best = headRest(ma, mb, da, db, best)
	}
	return best
}

// headRest is headMin over bitmap words 1 to 3, given the two bitmaps and
// head distances: a word's ranks start after the set bits of the words
// before it.
func headRest[T hubWord](ma, mb, da, db []T, best uint64) uint64 {
	var na, nb uint
	for k := 1; k < pllHeadHubs/64; k++ {
		na += uint(bits.OnesCount64(bitmapWord(ma, k-1)))
		nb += uint(bits.OnesCount64(bitmapWord(mb, k-1)))
		wa, wb := bitmapWord(ma, k), bitmapWord(mb, k)
		for m := wa & wb; m != 0; m &= m - 1 {
			below := m&-m - 1
			ia := na + uint(bits.OnesCount64(wa&below))
			ib := nb + uint(bits.OnesCount64(wb&below))
			best = min(best, headDist(da, ia)+headDist(db, ib))
		}
	}
	return best
}

// tailMin folds into best the sums over the tail hubs ta and tb share, ta
// the shorter and not empty, by scatter, probe, reset over slot, a
// rank-indexed scratch that is all zero on entry and on return: ta's
// distances are written to their ranks' slots, every entry of tb folds
// slot + dist into best — a rank ta lacks reads an empty slot, which cannot
// win — and the written slots are zeroed. No loop carries a load address or
// a data-dependent exit from one step to the next, so entries overlap in
// the core.
func tailMin[T hubWord](ta, tb []T, dw uint, slot []uint32, best uint64) uint64 {
	dw &= 63 // at most 32: the mask spares the shifts their overflow checks
	mask := uint64(1)<<dw - 1
	for _, x := range ta {
		slot[uint64(x)>>dw] = ^uint32(uint64(x) & mask)
	}
	for _, y := range tb {
		best = min(best, uint64(^slot[uint64(y)>>dw])+uint64(y)&mask)
	}
	for _, x := range ta {
		slot[uint64(x)>>dw] = 0
	}
	return best
}

// distBounded is Lemma 7's decode: the minimum over fat-hub relays, then
// for thin-thin pairs the two sorted thin lists — binary-searched here, with
// answers identical to distance.Decoder's linear scan because construction
// verified strict id order.
func (e *DistEngine) distBounded(mu, mv vertexMeta) int {
	best := e.f + 1
	offA, offB := mu.off, mv.off
	dw := e.dw
	for i := 0; i < e.nFat; i++ {
		da := int(bitstr.SlabReadBits(e.slab, offA+int64(i*dw), dw))
		if da >= best {
			continue
		}
		db := int(bitstr.SlabReadBits(e.slab, offB+int64(i*dw), dw))
		if s := da + db; s < best {
			best = s
		}
	}
	if !mu.fat() && !mv.fat() {
		if d, ok := e.thinDist(mu, mv.id()); ok && d < best {
			best = d
		}
		if best > 0 {
			if d, ok := e.thinDist(mv, mu.id()); ok && d < best {
				best = d
			}
		}
	}
	if best > e.f {
		return graph.Unreachable // distance.Beyond: the same -1 sentinel
	}
	return best
}

// thinDist binary-searches m's sorted thin list for target and returns its
// stored distance.
func (e *DistEngine) thinDist(m vertexMeta, target uint64) (int, bool) {
	w := e.w
	if w == 0 {
		return 0, false
	}
	stride := int64(w + e.dw)
	base := m.off + int64(e.nFat*e.dw)
	slab := e.slab
	lo, hi := int64(0), m.cnt()-1
	for lo <= hi {
		mid := (lo + hi) >> 1
		got := bitstr.SlabReadBits(slab, base+mid*stride, w)
		switch {
		case got == target:
			return int(bitstr.SlabReadBits(slab, base+mid*stride+int64(w), e.dw)), true
		case got < target:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return 0, false
}

// DistSpan answers a caller-tallied span of pairs into res (which must hold
// at least len(pairs) entries): the distance plane's span kernel, with
// AdjacentSpan's contract. It returns the number of pairs answered; when that
// is short of len(pairs), pairs[answered] is the first failing query and err
// its error — res[:answered] is still valid. Tallies go to t as plain
// increments, to be flushed once per span with FlushTally. Allocation-free
// once the engine's scratch pool is warm.
func (e *DistEngine) DistSpan(pairs [][2]int, res []int, t *QueryTally) (answered int, err error) {
	s := e.takeScratch()
	defer e.releaseScratch(s)
	for i, p := range pairs {
		d, err := e.distTallied(p[0], p[1], s, t)
		if err != nil {
			return i, err
		}
		res[i] = d
	}
	return len(pairs), nil
}

// DistMany answers a batch of queries, appending one distance per pair to
// out and returning the extended slice; capacity for len(pairs) results
// makes the batch allocation-free. It stops at the first failing query.
func (e *DistEngine) DistMany(pairs [][2]int, out []int) ([]int, error) {
	out, res := grow(out, len(pairs))
	var t QueryTally
	done, err := e.DistSpan(pairs, res, &t)
	return finishMany(&e.engineMetrics, &t, "dist query", pairs, out, done, err)
}
