package core

import "repro/internal/bitstr"

// ProbeBlock is the number of pairs the batch probe kernel resolves together.
// A scalar probe is a chain of dependent cache misses — two header records,
// then each word of a binary search — with a hard-to-predict branch between
// every two of them, so a loop of scalar probes keeps about one miss in
// flight. A block issues all its header loads, then all first search words,
// back to back, and the memory system overlaps them. 16, 32 and 64 measured
// the same on the sizing prototype; 32 keeps the kernel's stack arrays at
// 1.3 KB.
const ProbeBlock = 32

// How pass 2 of adjacentBlock left a pair for pass 3.
const (
	// blockScalar (the zero value) hands the pair to the scalar path: a
	// misrouted pair, which will fail with ErrNotResident — the scalar path
	// builds the error and charges the tally exactly as Adjacent would.
	blockScalar uint8 = iota
	blockSelf
	blockFat    // word holds the bitmap bit
	blockThin   // word holds the first binary-search identifier
	blockInline // word is nonzero iff the header record's list (maybe empty) holds the id
	blockKinds
)

// adjacentBlock is the batch probe kernel under every batch surface:
// AdjacentSpan cuts a span into blocks of at most ProbeBlock pairs and this
// resolves one block into res[:len(pairs)], tallying into t. It returns the
// number of pairs answered and, when that is short of len(pairs), the error
// of the lowest failing pair — the answers before it are delivered, nothing
// after it is. Answers, errors and tallies are exactly those of calling the
// scalar adjacentTallied pair by pair in order; only the order of the memory
// accesses differs. Four passes over stack arrays:
//
//  0. range checks; the lowest failing index ends the block;
//  1. every header load, nothing branching on a loaded value;
//  2. classify each pair as probe does — self, fat–fat, else the endpoint with
//     the larger identifier (with residency); both identifiers are in the
//     words pass 1 loaded, so the choice is a compare — and issue that thin
//     list's first binary-search word load (or the fat bitmap word load),
//     again without branching on what it returns; a list the header record
//     holds (vertexMeta), an empty one included, needs no load: its record
//     word is the whole list, matched there and then in one word
//     (inlineSearch);
//  3. in pair order, finish each slab search from its preloaded word with
//     the ordinary branchy loop; every other pair's answer is its word, and
//     its tally a count by kind, folded into t once.
//
// A mispredicted branch in pass 2 or 3 discards only younger instructions, so
// the loads issued by the pass before stay in flight.
func (e *QueryEngine) adjacentBlock(pairs [][2]int, res []bool, t *QueryTally) (int, error) {
	n := len(pairs)
	for i, p := range pairs {
		if uint(p[0]) >= uint(e.n) || uint(p[1]) >= uint(e.n) {
			n = i
			break
		}
	}

	// list[i] is u's header and other[i] is v's until pass 2 orients them:
	// afterwards list[i] is the label the probe reads and other[i].id() the
	// identifier it looks for.
	var list, other [ProbeBlock]vertexMeta
	for i, p := range pairs[:n] {
		list[i], other[i] = e.meta[p[0]], e.meta[p[1]]
	}

	var kind [ProbeBlock]uint8
	var word [ProbeBlock]uint64
	slab, w := e.slab, e.w
	for i, p := range pairs[:n] {
		mu, mv := list[i], other[i]
		if mu.id() == mv.id() {
			kind[i] = blockSelf
			continue
		}
		if mu.fat() && mv.fat() {
			kind[i] = blockFat
			word[i] = bitstr.SlabReadBits(slab, mu.off+int64(mv.id()), 1)
			continue
		}
		at := p[0]
		if mu.id() < mv.id() {
			mu, mv, at = mv, mu, p[1]
			list[i], other[i] = mu, mv
		}
		if !e.owns(at) {
			continue // ErrNotResident: the scalar path reports it
		}
		if cnt := mu.cnt(); e.inline(cnt) {
			kind[i] = blockInline
			word[i] = inlineSearch(uint64(mu.off), e.inlineRepFor(cnt), w, mv.id())
		} else {
			kind[i] = blockThin
			mid := (int(cnt) - 1) >> 1
			word[i] = bitstr.SlabReadBits(slab, mu.off+int64(mid*w), w)
		}
	}

	var kinds [blockKinds]int64 // pairs answered so far, by kind
	for i, p := range pairs[:n] {
		switch kind[i] {
		case blockScalar:
			ans, err := e.adjacentTallied(p[0], p[1], t)
			if err != nil {
				t.addKinds(&kinds)
				return i, err
			}
			res[i] = ans
		case blockThin:
			base, target := list[i].off, other[i].id()
			lo, hi := 0, int(list[i].cnt())-1
			mid, got := hi>>1, word[i]
			ans := false
			for {
				if got == target {
					ans = true
					break
				}
				if got < target {
					lo = mid + 1
				} else {
					hi = mid - 1
				}
				if lo > hi {
					break
				}
				mid = int(uint(lo+hi) >> 1)
				got = bitstr.SlabReadBits(slab, base+int64(mid*w), w)
			}
			res[i] = ans
		default:
			res[i] = word[i] != 0
		}
		kinds[kind[i]]++
	}
	t.addKinds(&kinds)
	if n < len(pairs) {
		// Out of range: the scalar path builds the error (and tallies nothing).
		_, err := e.adjacentTallied(pairs[n][0], pairs[n][1], t)
		return n, err
	}
	return n, nil
}

// addKinds charges t with the pairs pass 3 of adjacentBlock answered without
// the scalar path, counted by kind: the tallies probe charges for them.
func (t *QueryTally) addKinds(kinds *[blockKinds]int64) {
	thin := kinds[blockThin] + kinds[blockInline]
	t.queries += kinds[blockSelf] + kinds[blockFat] + thin
	t.self += kinds[blockSelf]
	t.fat += kinds[blockFat]
	t.thin += thin
	t.inline += kinds[blockInline]
}

// AdjacentSpan answers a caller-tallied span of pairs into res (which must
// hold at least len(pairs) entries) through the batch probe kernel, one block
// of ProbeBlock pairs at a time. It returns the number of pairs answered;
// when that is short of len(pairs), pairs[answered] is the first failing
// query and err its error — res[:answered] is still valid. It is the call
// for streaming queries at batch rates (the adjserve frame loop decodes a
// block of pairs and hands it over): tallies go to t as plain increments, to
// be flushed once per span with FlushTally. Allocation-free.
func (e *QueryEngine) AdjacentSpan(pairs [][2]int, res []bool, t *QueryTally) (answered int, err error) {
	for i := 0; i < len(pairs); i += ProbeBlock {
		end := min(i+ProbeBlock, len(pairs))
		if done, err := e.adjacentBlock(pairs[i:end], res[i:end], t); err != nil {
			return i + done, err
		}
	}
	return len(pairs), nil
}
