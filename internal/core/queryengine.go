package core

import (
	"fmt"

	"repro/internal/bitstr"
)

// QueryEngine is the serving-path counterpart of FatThinDecoder: it is built
// once from a complete fat/thin labeling, pre-parses every label's header
// (fat bit, identifier, body length) into flat slices, and probes label
// bodies in a byte-packed slab (big-endian 64-bit words, the shared
// slab layout of bitstr). A query is then a handful of word-addressed probes
// — at most two word loads and a shift per probe, zero heap allocations, no
// Reader, no re-parsing. Labels are validated once at construction, against
// the one slab contract every encoder meets — the label at rank r carries
// identifier r, the k fat labels come first, every fat body is k bits (see
// NewQueryEngineFromPermutedArena) — so a query fails only on range or
// residency, never on a label.
//
// A slab (a Labeling's, or a label store's) is adopted zero-copy: the engine
// points straight at the encoder's slab and only parses headers. The meta
// table stays id-indexed whatever the slab's rank→vertex permutation; only
// the offsets follow it.
//
// A QueryEngine is immutable after construction and safe for concurrent use
// by any number of goroutines.
type QueryEngine struct {
	n int // number of vertices
	w int // identifier width: ceil(log2 n)
	// inlineMax is the longest thin list a header record holds in place of
	// its slab offset: 64/w identifiers, 0 when w is 0 (see vertexMeta).
	// inlineRep has bit i·w set for every i < inlineMax; a list of cnt
	// identifiers matches against inlineRep >> ((inlineMax-cnt)·w).
	inlineMax int
	inlineRep uint64
	// meta holds the flat pre-parsed headers, one 16-byte record per vertex
	// (four to a cache line), indexed by vertex id regardless of the slab's
	// physical layout.
	meta []vertexMeta
	// slab holds the label bodies: each vertex's body (neighbor ids or fat
	// vector) starts at bit offset meta[v].off, unless the record holds it.
	// Probes via bitstr.SlabReadBits never cross the end of the backing
	// slice (see the in-bounds argument there).
	slab []byte
	// engineMetrics, when attached, receives per-call tallies; see batch.go.
	engineMetrics
	// [lo, hi) is the owned vertex range: [0, n) unsharded, the shard map's
	// range once SetShard marks the engine as serving one shard of a
	// partitioned store, and empty on an engine holding absent labels that no
	// shard map has named yet. A vertex's full label body is present when it
	// is owned or fat (fat labels are replicated to every shard); a query
	// resolvable only from another body returns ErrNotResident instead of
	// probing an absent label. Like metrics they are set before the engine is
	// shared and read-only afterwards.
	lo, hi int
	shard  ShardMap
	// fatCount is k, the number of fat labels: the build's contract makes
	// them the identifiers 0..k-1 (FatCount).
	fatCount int
}

// vertexMeta is one label's pre-parsed header, packed into a single 16-byte
// record: off, and one word holding the identifier, the body count, and the
// fat flag —
//
//	word = id<<32 | cnt<<1 | fat
//
// cnt is the body size in body units: for thin labels the number of neighbor
// identifiers, for fat labels the vector length in bits; both are capped at
// 2^31-1 at build time, and identifiers fit 32 bits because the engine
// refuses id widths above 32 (2^32 vertices is far beyond maxLabels).
//
// In a QueryEngine off is the body's slab bit offset, except for a thin
// label whose whole list fits one word (cnt·w <= 64): there off holds the
// list itself, its cnt·w body bits right-aligned with the first identifier
// most significant, read off the slab once at build, where the list must
// also be sorted (non-decreasing) — inlineSearch relies on it. An empty list
// is record-held too, its word left unread: with no identifier in it,
// inlineSearch matches nothing whatever the word holds. Which it is follows
// from (fat, cnt, w) alone, so no flag marks it. An absent label (0 bits: a
// shard store's foreign thin vertex, see ShardLabelArenas) is a thin record
// of no identifiers whose word is absentList, where a present empty list's
// holds its slab offset; its identifier is its slab rank. A DistEngine gives
// off its own meaning (see DistEngine.meta).
type vertexMeta struct {
	off  int64
	word uint64
}

func (m vertexMeta) id() uint64 { return m.word >> 32 }
func (m vertexMeta) cnt() int64 { return int64(m.word >> 1 & (1<<31 - 1)) }
func (m vertexMeta) fat() bool  { return m.word&1 != 0 }

// absentList is the list word of an absent label's record. An empty list
// matches nothing whatever its word holds, so the mark costs the probe
// nothing; SetShard reads it.
const absentList = -1

// absent reports whether the record stands for an absent label.
func (m vertexMeta) absent() bool { return m.word&(1<<32-1) == 0 && m.off == absentList }

// errLabel is a build-time refusal of the label of vertex v at slab rank r.
func errLabel(v, r int, format string, args ...any) error {
	return fmt.Errorf("%w: label %d at rank %d: "+format, append([]any{ErrBadLabel, v, r}, args...)...)
}

// errAbsent is fatThinHeader's refusal of a 0-bit label: an absent label,
// which only the engine constructor accepts. It is one value, so the absent
// labels of a shard, most of its labels, cost no allocation.
var errAbsent = fmt.Errorf("%w: an absent label (0 bits)", ErrBadLabel)

// fatThinHeader validates the fat/thin label of vertex v at slab rank r —
// bits bits at slab bit off, inside the slab as a bitstr.SlabWalk vouches —
// and packs its header word. It holds the label to the rank half of the slab
// contract (NewQueryEngineFromPermutedArena): its identifier is r. The
// engine constructor and the shard split read every label through it.
func fatThinHeader(slab []byte, off int64, bits, w, v, r int) (uint64, error) {
	header := 1 + w
	body := bits - header
	switch {
	case bits == 0:
		return 0, errAbsent
	case body < 0:
		return 0, errLabel(v, r, "%d bits, header needs %d", bits, header)
	case body > 1<<31-1:
		// cnt occupies 31 bits; a larger body would silently truncate and turn
		// the build-time bounds guarantees into query-time garbage.
		return 0, errLabel(v, r, "body of %d bits", body)
	}
	var id uint64
	if w > 0 {
		id = bitstr.SlabReadBits(slab, off+1, w)
	}
	if id != uint64(r) {
		return 0, errLabel(v, r, "identifier %d, not its rank", id)
	}
	if bitstr.SlabReadBits(slab, off, 1) == 1 {
		return id<<32 | uint64(body)<<1 | 1, nil
	}
	cnt := 0
	if w > 0 {
		if body%w != 0 {
			return 0, errLabel(v, r, "thin body %d bits not a multiple of id width %d", body, w)
		}
		cnt = body / w
	}
	return id<<32 | uint64(cnt)<<1, nil
}

// NewQueryEngine builds an engine over a labeling produced by any scheme
// using the fat/thin label layout (FatThinScheme, baseline.NeighborList),
// adopting its slab without relocating a single body bit. Labels are
// validated once here, against the slab contract
// NewQueryEngineFromPermutedArena states.
func NewQueryEngine(lab *Labeling) (*QueryEngine, error) {
	return NewQueryEngineFromPermutedArena(lab.slab, lab.bitLens, lab.order)
}

// NewQueryEngineFromPermutedArena builds an engine over a slab whose label
// at rank r is label order[r], occupying bitLens[order[r]] bits; nil order
// is the identity (label v the v-th in the slab). The meta table is indexed
// by vertex id — the walk in rank order scatters headers to meta[order[r]] —
// and the slab is adopted zero-copy: construction parses and validates the n
// label headers but never moves a body.
//
// The slab must meet the contract every encoder's slab meets (Theorems 3/4
// number vertices by descending degree, the fat hubs first):
//
//   - the label at rank r carries identifier r (with order nil, vertex v
//     carries v, as a nbrlist labeling does);
//   - the fat labels occupy ranks 0..k-1;
//   - every fat body is exactly k bits.
//
// The first label that breaks it is refused with ErrBadLabel naming its
// vertex and rank; a fat prefix whose bodies agree but are not k bits long
// is refused at its first label. So a probe never meets a fat identifier
// outside a vector or a fat label above a thin one: after the build a query
// fails only on range or residency. A thin list short enough for its header
// record is copied into the record and must be sorted (non-decreasing): an
// unsorted one is refused with ErrBadLabel. A longer, slab-held list is
// searched in place, in the order FatThinDecoder searches it, so it may be
// unsorted.
//
// A label of 0 bits is absent — a foreign thin vertex of a shard store
// (ShardLabelArenas) — and its identifier is its rank. An engine holding
// absent labels owns no thin vertex until SetShard names its range, so it
// answers a pair only from a fat bitmap and refuses every other with
// ErrNotResident.
func NewQueryEngineFromPermutedArena(slab []byte, bitLens []int, order []int32) (*QueryEngine, error) {
	n := len(bitLens)
	w := bitstr.WidthFor(uint64(n))
	if w > 32 {
		return nil, fmt.Errorf("%w: %d labels need id width %d, engine packs ids in 32 bits", ErrBadLabel, n, w)
	}
	header := 1 + w
	e := &QueryEngine{n: n, w: w, meta: make([]vertexMeta, n), slab: slab, hi: n}
	e.inlineMax, e.inlineRep = inlineLayout(w)
	// The first fat label — at rank 0 — and its body, which every fat body
	// matches.
	first, fatBody := 0, int64(0)
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	for r := 0; walk.Next(); r++ {
		v, off := walk.Label()
		word, err := fatThinHeader(slab, off, bitLens[v], w, v, r)
		if err != nil {
			if err != errAbsent {
				return nil, err
			}
			// Absent: thin, no identifiers, its rank for identifier, and no
			// thin vertex owned until SetShard names a range.
			e.meta[v] = vertexMeta{off: absentList, word: uint64(r) << 32}
			e.hi = 0
			continue
		}
		m := vertexMeta{off: off + int64(header), word: word}
		if m.fat() {
			switch {
			case r != e.fatCount:
				return nil, errLabel(v, r, "fat after a thin label")
			case r == 0:
				first, fatBody = v, m.cnt()
			case m.cnt() != fatBody:
				return nil, errLabel(v, r, "fat body of %d bits, the first has %d", m.cnt(), fatBody)
			}
			e.fatCount++
		}
		// An empty list is not read: its record word matches nothing,
		// whatever it holds.
		if cnt := m.cnt(); !m.fat() && cnt > 0 && e.inline(cnt) {
			list := bitstr.SlabReadBits(slab, m.off, int(cnt)*w)
			if !inlineSorted(list, int(cnt), w) {
				return nil, errLabel(v, r, "record-held list of %d ids not sorted", cnt)
			}
			m.off = int64(list)
		}
		e.meta[v] = m
	}
	if err := walk.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	if k := e.fatCount; k > 0 && fatBody != int64(k) {
		return nil, errLabel(first, 0, "fat body of %d bits, not the fat count %d", fatBody, k)
	}
	return e, nil
}

// N returns the number of vertices the engine serves.
func (e *QueryEngine) N() int { return e.n }

// Adjacent answers an adjacency query between vertices u and v. It is
// allocation-free and answers bit-for-bit identically to
// FatThinDecoder.Adjacent over the same labels. It runs the scalar probe —
// two header reads, one classification, one binary search — which is also
// the reference the batch kernel (adjacentBlock) is differentially pinned to.
func (e *QueryEngine) Adjacent(u, v int) (bool, error) {
	var t QueryTally
	ok, err := e.adjacentTallied(u, v, &t)
	e.flush(&t)
	return ok, err
}

// adjacentTallied is the scalar probe path: it answers one query and tallies
// which decode branch resolved it into t.
func (e *QueryEngine) adjacentTallied(u, v int, t *QueryTally) (bool, error) {
	if uint(u) >= uint(e.n) || uint(v) >= uint(e.n) {
		return false, fmt.Errorf("%w: (%d,%d) of %d", ErrVertexRange, u, v, e.n)
	}
	t.queries++
	return e.probe(u, v, t)
}

// probe resolves one in-range query against the slab, by the one read rule of
// the fat/thin layout (fatthin.go): self → false; both fat → the (replicated)
// bitmap; otherwise the edge is listed by the endpoint with the larger
// identifier, a thin vertex, whose body is searched for the smaller one. The
// build's slab contract makes both reads safe: a fat vector holds k bits and
// every fat identifier is below k, below every thin one. On a shard
// (SetShard) the list must be resident: a pair whose larger-identifier
// endpoint is foreign was misrouted and the probe refuses — wherever it
// answers, the answer is bit-for-bit the unsharded engine's.
func (e *QueryEngine) probe(u, v int, t *QueryTally) (bool, error) {
	list, other := e.meta[u], e.meta[v]
	if list.id() == other.id() {
		// Same vertex: never self-adjacent in a simple graph.
		t.self++
		return false, nil
	}
	if list.fat() && other.fat() {
		// Both fat: bit v.id of u's adjacency vector.
		t.fat++
		return bitstr.SlabReadBits(e.slab, list.off+int64(other.id()), 1) == 1, nil
	}
	at := u
	if list.id() < other.id() {
		list, other, at = other, list, v
	}
	if !e.owns(at) {
		return false, e.notResident(u, v)
	}
	t.thin++
	return e.thinProbe(list, other.id(), t), nil
}

// inline reports whether a thin label of cnt identifiers is held in its
// header record (cnt·w <= 64, an empty list included; see vertexMeta).
func (e *QueryEngine) inline(cnt int64) bool { return uint64(cnt) <= uint64(e.inlineMax) }

// inlineLayout returns, for id width w, the longest record-held list, 64/w
// identifiers (0 when w is 0), and the word with bit i·w set for each of them.
func inlineLayout(w int) (most int, rep uint64) {
	if w == 0 {
		return 0, 0
	}
	most = 64 / w
	for i := range most {
		rep |= 1 << uint(i*w)
	}
	return most, rep
}

// inlineRepFor is the word with bit i·w set for each i < cnt, for a
// record-held list of cnt identifiers: 0 for an empty list, which
// inlineSearch then matches against nothing.
func (e *QueryEngine) inlineRepFor(cnt int64) uint64 {
	return e.inlineRep >> uint((e.inlineMax-int(cnt))*e.w)
}

// inlineSorted reports whether the cnt identifiers of w bits held in list
// (right-aligned, the first most significant) are non-decreasing.
func inlineSorted(list uint64, cnt, w int) bool {
	mask := uint64(1)<<uint(w) - 1
	prev := uint64(0)
	for i := cnt - 1; i >= 0; i-- {
		id := list >> uint(i*w) & mask
		if id < prev {
			return false
		}
		prev = id
	}
	return true
}

// thinProbe binary-searches thin vertex u's sorted neighbor-id list for
// target — the O(log n) decode of Theorems 3/4, with each probe at most two
// word loads at a computed slab offset — or, for a list the record holds,
// matches it in one word (inlineSearch). Bounds were validated at build time.
func (e *QueryEngine) thinProbe(m vertexMeta, target uint64, t *QueryTally) bool {
	if e.inline(m.cnt()) {
		t.inline++
		return inlineSearch(uint64(m.off), e.inlineRepFor(m.cnt()), e.w, target) != 0
	}
	w := e.w
	slab, base := e.slab, m.off
	lo, hi := 0, int(m.cnt())-1
	for lo <= hi {
		mid := int(uint(lo+hi) >> 1)
		got := bitstr.SlabReadBits(slab, base+int64(mid*w), w)
		switch {
		case got == target:
			return true
		case got < target:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return false
}

// inlineSearch returns a word that is nonzero exactly when target (below
// 2^w) is one of the identifiers of a list held in a header record — w bits
// each, right-aligned in list — where rep has bit i·w set for each of the
// list's cnt fields. It is the SWAR zero-field test: x is zero exactly in the
// fields equal to target, and subtracting rep borrows into the top bit of the
// lowest such field. The engine holds only sorted lists in a record (see
// vertexMeta), and on a sorted list membership is the binary search's answer,
// so the slab search and FatThinDecoder answer alike.
func inlineSearch(list, rep uint64, w int, target uint64) uint64 {
	x := list ^ target*rep
	return (x - rep) &^ x & (rep << uint(w-1))
}

// AdjacentMany answers a batch of queries, appending one result per pair to
// out and returning the extended slice. Passing an out slice with capacity
// for len(pairs) results makes the whole batch allocation-free. It stops at
// the first failing query.
func (e *QueryEngine) AdjacentMany(pairs [][2]int, out []bool) ([]bool, error) {
	out, res := grow(out, len(pairs))
	var t QueryTally
	done, err := e.AdjacentSpan(pairs, res, &t)
	return finishMany(&e.engineMetrics, &t, "query", pairs, out, done, err)
}
