package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// DistEngine is the distance-plane counterpart of QueryEngine: built once
// over a DistArena (or a distance label store), it pre-parses
// every label's header into the same packed 16-byte vertexMeta records and
// answers Dist(u, v) with no Reader, no re-parsing and zero heap
// allocations on the hot path.
//
// Two kernels, selected by the arena's DistKind:
//
//   - DistPLL: a min-sum over the hubs the two sorted hub lists share,
//     found by scattering the shorter list into a rank-indexed scratch and
//     probing it with the longer (distPLL). Construction decodes every
//     label's δ-gap hub ranks and fixed-width distances once into one table
//     of rank<<32|dist words (hubs), so a query reads that table and never
//     the slab. Answers match distance.PLLDecoder.Dist bit for bit;
//     unreachable pairs return -1 (graph.Unreachable).
//   - DistBounded: Lemma 7's decode straight from the slab —
//     the minimum over fat-hub relays (both fixed-width fat tables walked in
//     lockstep with the legacy early-out) plus, for thin-thin pairs, a
//     binary search of each sorted thin list. Distances beyond the bound f
//     return -1 (distance.Beyond, numerically the same sentinel).
//
// Every label is fully validated at construction — entry lists must stay in
// bounds, strictly sorted, and tile their label exactly — so the hot path
// never errors and never reads outside the slab or the table on any engine
// that construction accepted (FuzzDistEngineHeaders leans on exactly this).
// Like QueryEngine, a DistEngine is immutable after construction and safe
// for concurrent use; metrics and the result cache attach before sharing.
type DistEngine struct {
	kind DistKind
	n    int
	w    int // identifier width (pll: min 1; bdist: exact ceil(log2 n))
	wCnt int // pll entry-count width
	dw   int // distance field width
	f    int // bdist bound
	nFat int // bdist fat-table width
	// meta reuses QueryEngine's packed header record: word packs
	// id<<32 | cnt<<1 | fat with cnt the entry count (pll: hub entries;
	// bdist: thin-list entries). off is, for bdist, the slab bit offset of
	// the label body (the fat table) and, for pll, the index of the
	// vertex's first entry in hubs.
	meta []vertexMeta
	slab []byte
	// hubs holds every PLL label's entries as rank<<32 | dist, label after
	// label in slab order; nil for bdist.
	hubs []uint64
	// scratch pools the PLL queries' rank scratches (*rankScratch); bdist
	// engines never take one.
	scratch sync.Pool
	// engineMetrics is the shared attachment (batch.go). Distance queries
	// tally the branch that resolved them: self for equal identifiers, fat
	// when a bdist query had a fat endpoint, thin for thin-thin bdist pairs
	// and every PLL hub-list probe.
	engineMetrics
	cache *distCache
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
	e := &DistEngine{kind: p.Kind, n: n, dw: p.DW, f: p.F, nFat: p.NFat, slab: slab,
		meta: make([]vertexMeta, n)}
	if p.Kind == DistPLL {
		e.w, e.wCnt, _ = pllWidths(n, 0)
	} else {
		e.w = bitstr.WidthFor(uint64(n))
	}
	if e.w > 32 {
		return nil, fmt.Errorf("%w: %d labels need id width %d, engine packs ids in 32 bits", ErrBadLabel, n, e.w)
	}
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	entries := 0
	for walk.Next() {
		v, off := walk.Label()
		var err error
		if e.kind == DistPLL {
			var cnt int
			cnt, err = e.pllHeader(v, off, int64(bitLens[v]))
			entries += cnt
		} else {
			err = e.validateBounded(v, off, int64(bitLens[v]))
		}
		if err != nil {
			return nil, err
		}
	}
	if err := walk.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	if e.kind == DistPLL {
		if err := e.decodePLL(bitLens, order, entries); err != nil {
			return nil, err
		}
		e.scratch.New = func() any { return &rankScratch{slot: make([]uint32, n)} }
	}
	return e, nil
}

// pllHeader parses the header of label v at slab bit off spanning lbits
// bits into e.meta[v], with off the slab bit offset of its first entry, and
// returns the entry count. A well-formed entry is at least 1 (delta0 of gap
// 0) + dw bits, so a count beyond that bound cannot tile the label; refusing
// it here bounds the hub table decodePLL allocates by the slab's size.
func (e *DistEngine) pllHeader(v int, off, lbits int64) (int, error) {
	header := int64(e.w + e.wCnt)
	if lbits < header {
		return 0, fmt.Errorf("%w: pll label %d has %d bits, header needs %d", ErrBadLabel, v, lbits, header)
	}
	id := bitstr.SlabReadBits(e.slab, off, e.w)
	cnt := bitstr.SlabReadBits(e.slab, off+int64(e.w), e.wCnt)
	if cnt > uint64(lbits-header)/uint64(1+e.dw) || cnt > 1<<31-1 {
		return 0, fmt.Errorf("%w: pll label %d declares %d entries in %d body bits", ErrBadLabel, v, cnt, lbits-header)
	}
	e.meta[v] = vertexMeta{off: off + header, word: id<<32 | cnt<<1}
	return int(cnt), nil
}

// decodePLL allocates the hub table once, at its exact size of entries, and
// decodes every label into it in slab order, walking every δ-coded entry:
// ranks must be strictly increasing vertex ranks and the entries must tile
// the label exactly. Each label's meta off moves from its slab offset to
// its first index in the table.
func (e *DistEngine) decodePLL(bitLens []int, order []int32, entries int) error {
	e.hubs = make([]uint64, entries)
	header := int64(e.w + e.wCnt)
	next := int64(0)
	for r := range bitLens {
		v := r
		if order != nil {
			v = int(order[r])
		}
		m := &e.meta[v]
		pos := m.off
		end := pos - header + int64(bitLens[v])
		list := e.hubs[next : next+m.cnt()]
		rank := uint64(0)
		for i := range list {
			gap, wd, ok := slabReadDeltaChecked(e.slab, pos, end)
			if !ok {
				return fmt.Errorf("%w: pll label %d entry %d: bad rank gap code", ErrBadLabel, v, i)
			}
			rank += gap
			if rank >= uint64(e.n) || (i > 0 && gap == 0) {
				return fmt.Errorf("%w: pll label %d entry %d: rank %d of %d", ErrBadLabel, v, i, rank, e.n)
			}
			pos += wd
			if pos+int64(e.dw) > end {
				return fmt.Errorf("%w: pll label %d entry %d: distance past label end", ErrBadLabel, v, i)
			}
			list[i] = rank<<32 | bitstr.SlabReadBits(e.slab, pos, e.dw)
			pos += int64(e.dw)
		}
		if pos != end {
			return fmt.Errorf("%w: pll label %d: %d trailing bits after %d entries", ErrBadLabel, v, end-pos, len(list))
		}
		m.off = next
		next += int64(len(list))
	}
	return nil
}

// validateBounded checks a Lemma 7 label: exact fat length, thin list
// tiling, and strictly ascending in-range thin ids (the binary search's
// precondition — and what makes it answer identically to the legacy linear
// scan).
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
// construction: queries read the decoded hub table.
func slabReadDeltaChecked(slab []byte, pos, end int64) (val uint64, width int64, ok bool) {
	avail := end - pos
	if avail <= 0 {
		return 0, 0, false
	}
	peek := avail
	if peek > 64 {
		peek = 64
	}
	buf := bitstr.SlabReadBits(slab, pos, int(peek))
	if peek < 64 {
		buf <<= uint(64 - peek)
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

// HubTableBytes returns the heap a DistPLL engine holds in its decoded hub
// table, 8 bytes per hub entry, beyond the slab it adopted (0 for
// DistBounded, which queries the slab itself).
func (e *DistEngine) HubTableBytes() int { return 8 * len(e.hubs) }

// Dist answers a distance query between vertices u and v: the exact hop
// distance, or -1 when unreachable (DistPLL) or beyond the bound f
// (DistBounded) — the same sentinel both legacy decoders return. It is
// allocation-free once the scratch pool is warm and answers bit-for-bit
// identically to distance.PLLDecoder.Dist / distance.Decoder.Dist over the
// same labels.
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

// distTallied is the scalar probe path: one query, branch tallies into t.
// With a result cache enabled the labels are only probed on a miss.
func (e *DistEngine) distTallied(u, v int, s *rankScratch, t *QueryTally) (int, error) {
	if uint(u) >= uint(e.n) || uint(v) >= uint(e.n) {
		return 0, fmt.Errorf("%w: (%d,%d) of %d", ErrVertexRange, u, v, e.n)
	}
	t.queries++
	if c := e.cache; c != nil {
		key := distCacheKey(u, v)
		if d, hit := c.get(key); hit {
			t.cacheHits++
			return d, nil
		}
		t.cacheMisses++
		d := e.probeDist(u, v, s, t)
		c.put(key, d)
		return d, nil
	}
	return e.probeDist(u, v, s, t), nil
}

// probeDist resolves one in-range query against the labels.
func (e *DistEngine) probeDist(u, v int, s *rankScratch, t *QueryTally) int {
	mu, mv := e.meta[u], e.meta[v]
	if mu.id() == mv.id() {
		t.self++
		return 0
	}
	if e.kind == DistPLL {
		t.thin++
		return e.distPLL(mu, mv, s.slot)
	}
	if mu.fat() || mv.fat() {
		t.fat++
	} else {
		t.thin++
	}
	return e.distBounded(mu, mv)
}

// distPLL returns the minimum summed distance over the hubs the two sorted
// lists share — the answer of distance.PLLDecoder.Dist — by scatter, probe,
// reset over slot, a rank-indexed scratch that is all zero on entry and on
// return: the shorter list's distances are written to their ranks' slots,
// the longer list is walked up to the shorter's last rank folding
// slot + dist into best, and the written slots are zeroed. No loop carries a
// load address from one step to the next, so entries overlap in the core.
func (e *DistEngine) distPLL(mu, mv vertexMeta, slot []uint32) int {
	// A slot holds ^dist, so an empty (zero) slot reads back as 1<<32-1 and
	// its sum with any distance is at least 1<<32-1, above inf. A stored
	// distance of 1<<32-1 is indistinguishable from no hub, and reads back as
	// itself either way. Sums of 1<<30 and more count as no common hub, as
	// they do in the legacy decoder.
	const inf = 1 << 30
	a := e.hubs[mu.off : mu.off+mu.cnt()]
	b := e.hubs[mv.off : mv.off+mv.cnt()]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return graph.Unreachable
	}
	for _, x := range a {
		slot[x>>32] = ^uint32(x)
	}
	last := a[len(a)-1] >> 32
	best := uint64(inf)
	for _, y := range b {
		if y>>32 > last {
			break // no later hub of the longer list is in the shorter one
		}
		if s := uint64(^slot[y>>32]) + y&(1<<32-1); s < best {
			best = s
		}
	}
	for _, x := range a {
		slot[x>>32] = 0
	}
	if best == inf {
		return graph.Unreachable
	}
	return int(best)
}

// distBounded is Lemma 7's decode: the minimum over fat-hub relays, then
// for thin-thin pairs the two sorted thin lists — binary-searched here, with
// answers identical to the legacy linear scan because construction verified
// strict id order.
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

// distCache is a direct-mapped (u,v)→distance cache for the engine's hot
// pairs. A slot is one atomic word:
//
//	slot = key<<10 | (dist+1)<<1 | 1
//
// with key = min(u,v)<<27 | max(u,v). The low valid bit distinguishes the
// empty slot from key 0. Distances carry 9 bits (stored +1 so the -1
// sentinel packs as 0), so the cache holds answers up to 510 hops — far past
// any power-law diameter; larger answers are simply not inserted. Keys embed
// both vertices, so a lost race between two stores to one slot leaves a
// correct entry, never one answering for a different pair: reads and writes
// need no locks. Entries are evicted only by collision.
type distCache struct {
	slots []atomic.Uint64
	mask  uint64
}

func newDistCache(bits int) *distCache {
	return &distCache{slots: make([]atomic.Uint64, 1<<bits), mask: 1<<bits - 1}
}

// distCacheKey canonicalizes an unordered pair (distances are symmetric).
// Callers guarantee 0 <= u,v < n <= 2^27.
func distCacheKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<27 | uint64(v)
}

// index spreads the key with the splitmix64 finalizer; direct-mapping on the
// low bits would collide every pair sharing a low vertex id — precisely the
// hub pairs the cache exists for.
func (c *distCache) index(key uint64) uint64 {
	h := key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h & c.mask
}

func (c *distCache) get(key uint64) (dist int, hit bool) {
	s := c.slots[c.index(key)].Load()
	if s&1 == 1 && s>>10 == key {
		return int(s>>1&0x1ff) - 1, true
	}
	return 0, false
}

func (c *distCache) put(key uint64, dist int) {
	if dist < -1 || dist > 509 {
		return
	}
	c.slots[c.index(key)].Store(key<<10 | uint64(dist+1)<<1 | 1)
}

// maxCacheBits caps the cache at 2^28 slots (2 GiB of slots is past any
// sensible configuration; the cap mostly guards against a mistyped flag).
const maxCacheBits = 28

// EnableResultCache attaches a direct-mapped (u,v)→distance cache of 2^bits
// slots (8·2^bits bytes) probed before the labels; bits <= 0 detaches. Like
// AttachMetrics it must be called before the engine is shared across
// goroutines — afterwards the cache is safe under any number of concurrent
// readers and writers. Hits and misses are tallied into the attached
// EngineMetrics (dist_engine_cache_{hits,misses}_total); answers are never
// invalidated, which is sound because the labeling is immutable. Distance
// keys pack two 27-bit vertex ids, so the cache is available for engines up
// to 2^27 vertices.
func (e *DistEngine) EnableResultCache(bits int) error {
	if bits <= 0 {
		e.cache = nil
		return nil
	}
	if bits > maxCacheBits {
		return fmt.Errorf("core: result cache of 2^%d slots (max 2^%d)", bits, maxCacheBits)
	}
	if e.n > 1<<27 {
		return fmt.Errorf("core: distance cache keys pack 27-bit vertex ids, engine has %d vertices", e.n)
	}
	e.cache = newDistCache(bits)
	return nil
}
