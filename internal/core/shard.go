package core

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/bitstr"
)

// Sharded label stores: the horizontal-scale path of the serving tier.
//
// The fat/thin split (Theorems 3/4) makes vertex partitioning unusually
// clean. Every query (u,v) is resolved from a single label body: when both
// endpoints are fat, the k-bit fat adjacency bitmap of either; otherwise the
// sorted neighbor list of the endpoint with the larger identifier, which is
// thin and lists the other (the one read rule of fatthin.go, true of both
// ThinEdges layouts). So a shard that holds
//
//   - the full labels of the thin vertices it owns, and
//   - the full labels of every fat vertex (O(√(n/ln n) · n/ln n) bits in
//     total — the replicated fat–fat data is tiny relative to the store),
//
// can answer any pair whose larger-identifier endpoint it owns, plus every
// fat–fat pair. Foreign thin labels are kept as header-only stubs
// ([fat=0][id], exactly 1+w bits): the stub preserves the vertex's scheme
// identifier and fat flag, so a shard engine still classifies both endpoints
// of every query and routes misdirected pairs to ErrNotResident instead of
// silently answering from an empty body.

// ShardFn selects the vertex→shard ownership function. It is serialized in
// the label-store shard block, so values are stable wire constants.
type ShardFn uint8

const (
	// ShardRange assigns contiguous vertex ranges: owner(v) = ⌊v·S/n⌋.
	// Ranges follow vertex numbering, so workloads with id locality keep it.
	ShardRange ShardFn = 0
	// ShardHash assigns vertices by a splitmix64 hash of the vertex number:
	// owner(v) = h(v) mod S. Robust to any id-correlated skew.
	ShardHash ShardFn = 1
)

func (f ShardFn) String() string {
	switch f {
	case ShardRange:
		return "range"
	case ShardHash:
		return "hash"
	default:
		return fmt.Sprintf("shardfn(%d)", uint8(f))
	}
}

// Valid reports whether f is a defined ownership function.
func (f ShardFn) Valid() bool { return f == ShardRange || f == ShardHash }

// ParseShardFn parses the flag spelling of an ownership function.
func ParseShardFn(s string) (ShardFn, error) {
	switch s {
	case "range":
		return ShardRange, nil
	case "hash":
		return ShardHash, nil
	default:
		return 0, fmt.Errorf("core: unknown shard ownership function %q (want range or hash)", s)
	}
}

// shardHash is the splitmix64 finalizer over the vertex number: owner
// assignment must be uncorrelated with the id ordering, or hash sharding
// would degenerate into range sharding.
func shardHash(v int) uint64 {
	h := uint64(v) + 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ShardOwner returns the shard owning vertex v among count shards of an
// n-vertex labeling. Callers guarantee 0 <= v < n and count >= 1.
func ShardOwner(fn ShardFn, v, n, count int) int {
	if fn == ShardHash {
		return int(shardHash(v) % uint64(count))
	}
	return int(int64(v) * int64(count) / int64(n))
}

// ShardMap identifies one shard of a partitioned label store: the shard
// count, this shard's index, and the ownership function all shards agree on.
type ShardMap struct {
	Count int
	Index int
	Fn    ShardFn
}

// Validate checks the map against a vertex count.
func (m ShardMap) Validate(n int) error {
	switch {
	case m.Count < 1:
		return fmt.Errorf("core: shard map with %d shards", m.Count)
	case m.Count > n:
		return fmt.Errorf("core: %d shards over %d vertices", m.Count, n)
	case m.Index < 0 || m.Index >= m.Count:
		return fmt.Errorf("core: shard index %d of %d shards", m.Index, m.Count)
	case !m.Fn.Valid():
		return fmt.Errorf("core: unknown shard ownership function %d", uint8(m.Fn))
	}
	return nil
}

// Owner returns the shard owning vertex v of an n-vertex labeling.
func (m ShardMap) Owner(v, n int) int { return ShardOwner(m.Fn, v, n, m.Count) }

// Owns reports whether this shard owns vertex v.
func (m ShardMap) Owns(v, n int) bool { return m.Owner(v, n) == m.Index }

// OwnedCount returns the number of vertices this shard owns — the figure the
// label-store shard block records so a corrupted index or function is caught
// structurally at load.
func (m ShardMap) OwnedCount(n int) int {
	if m.Fn == ShardRange {
		// Contiguous: [⌈index·n/count⌉, ⌈(index+1)·n/count⌉) … computed by
		// inverting Owner's floor division, i.e. counting v with
		// ⌊v·count/n⌋ == index.
		lo := (int64(m.Index)*int64(n) + int64(m.Count) - 1) / int64(m.Count)
		hi := (int64(m.Index+1)*int64(n) + int64(m.Count) - 1) / int64(m.Count)
		return int(hi - lo)
	}
	owned := 0
	for v := 0; v < n; v++ {
		if m.Owns(v, n) {
			owned++
		}
	}
	return owned
}

// ShardArena is one shard's label slab: resident labels (owned vertices plus
// every fat vertex) copied verbatim, foreign thin labels reduced to their
// 1+w-bit header stub. BitLens is id-indexed like the source; the physical
// rank order (and hence any layout permutation) is preserved, so a
// degree-ordered source yields degree-ordered shards carrying the same
// permutation.
type ShardArena struct {
	Slab    []byte
	BitLens []int
	// Owned is the number of vertices the shard owns (fat vertices it does
	// not own are resident but not counted).
	Owned int
}

// ShardLabelArenas splits a fat/thin label slab into count per-shard arenas
// under the given ownership function. slab/bitLens/order describe the source
// exactly as NewQueryEngineFromPermutedArena accepts them (order nil = id
// layout); the source is validated the same way and is not modified. The
// fat–fat data is replicated to every shard; thin labels are kept in full
// only on their owner and stripped to the [fat-bit][id] header elsewhere.
//
// One walk over the source validates it and reads each label's offset and
// fat bit off the slab; the shards are then sized and filled independently of
// one another, on up to GOMAXPROCS goroutines.
func ShardLabelArenas(slab []byte, bitLens []int, order []int32, count int, fn ShardFn) ([]ShardArena, error) {
	n := len(bitLens)
	if count < 2 || count > n {
		return nil, fmt.Errorf("core: splitting %d labels into %d shards (want 2..n)", n, count)
	}
	if !fn.Valid() {
		return nil, fmt.Errorf("core: unknown shard ownership function %d", uint8(fn))
	}
	w := bitstr.WidthFor(uint64(n))
	if w > 32 {
		return nil, fmt.Errorf("%w: %d labels need id width %d, engine packs ids in 32 bits", ErrBadLabel, n, w)
	}
	// src[r] describes the label at slab rank r: its vertex, where it starts,
	// and the one shard that keeps it in full — every shard, for a fat label.
	const everyShard = -1
	type srcLabel struct {
		v, home int32
		off     int64
	}
	src := make([]srcLabel, 0, n)
	shards := make([]ShardArena, count)
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	for walk.Next() {
		v, off := walk.Label()
		word, err := fatThinHeader(slab, off, bitLens[v], w, v)
		if err != nil {
			return nil, err
		}
		home := ShardOwner(fn, v, n, count)
		shards[home].Owned++
		if word&1 != 0 {
			home = everyShard
		}
		src = append(src, srcLabel{v: int32(v), home: int32(home), off: off})
	}
	if err := walk.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}

	header := 1 + w
	stubBytes := bitstr.SlabLabelBytes(header)
	fill := func(s int) {
		// Pass 1: sizes. Resident labels keep their bytes, foreign thin labels
		// shrink to the ⌈(1+w)/8⌉ bytes of their stub.
		sh := &shards[s]
		sh.BitLens = make([]int, n)
		size := 0
		for _, l := range src {
			if l.home == everyShard || int(l.home) == s {
				sh.BitLens[l.v] = bitLens[l.v]
				size += bitstr.SlabLabelBytes(bitLens[l.v])
			} else {
				sh.BitLens[l.v] = header
				size += stubBytes
			}
		}
		// Pass 2: copy in rank order, so the shard slab keeps the source's
		// physical layout.
		sh.Slab = make([]byte, bitstr.SlabSize(size))
		sw := bitstr.NewSlabWriter(sh.Slab)
		at := 0
		for _, l := range src {
			if l.home == everyShard || int(l.home) == s {
				start := int(l.off >> 3)
				at += copy(sh.Slab[at:], slab[start:start+bitstr.SlabLabelBytes(bitLens[l.v])])
			} else {
				// Header stub: the label's first 1+w bits.
				sw.SeekBit(int64(at) << 3)
				sw.WriteUint(bitstr.SlabReadBits(slab, l.off, header), header)
				sw.Flush()
				at += stubBytes
			}
		}
	}
	_ = runRangesErr(evenRanges(count, min(count, runtime.GOMAXPROCS(0))), func(lo, hi int) error { // fill cannot fail
		for s := lo; s < hi; s++ {
			fill(s)
		}
		return nil
	})
	return shards, nil
}

// ErrNotResident is returned by a sharded engine for a query whose answering
// label — the larger-identifier endpoint's — is a stub on this shard: a
// misrouted pair. The
// router's job is to make this unreachable; surfacing it as an error (rather
// than answering false from a stripped stub) is what makes misrouting loud.
var ErrNotResident = errors.New("core: query not resident on this shard")

// SetShard marks the engine as serving one shard of a partitioned store: it
// builds the residency bitset (owned vertices plus every fat vertex) and
// cross-checks the shard map against the loaded labels — every non-resident
// thin label must be a header-only stub, so a store loaded under the wrong
// shard map fails here, at attach time, not at query time. Like
// AttachMetrics it must be called before the engine is shared across
// goroutines.
func (e *QueryEngine) SetShard(m ShardMap) error {
	if err := m.Validate(e.n); err != nil {
		return err
	}
	resident := make([]uint64, (e.n+63)>>6)
	for v := 0; v < e.n; v++ {
		if e.meta[v].fat() || m.Owns(v, e.n) {
			resident[v>>6] |= 1 << uint(v&63)
		} else if e.meta[v].cnt() != 0 {
			return fmt.Errorf("%w: vertex %d is foreign to shard %d/%d yet its thin label carries a %d-id body (wrong shard map?)",
				ErrBadLabel, v, m.Index, m.Count, e.meta[v].cnt())
		}
	}
	e.resident = resident
	e.shard = m
	return nil
}

// Shard returns the shard map attached by SetShard; ok=false for an
// unsharded engine.
func (e *QueryEngine) Shard() (ShardMap, bool) { return e.shard, e.resident != nil }

// Resident reports whether vertex v's full label body is present (always
// true on an unsharded engine).
func (e *QueryEngine) Resident(v int) bool {
	if e.resident == nil {
		return true
	}
	return e.resident[v>>6]&(1<<uint(v&63)) != 0
}

// Fat reports whether vertex v is fat (its label carries the k-bit fat
// adjacency bitmap). Valid on sharded engines for every vertex: stubs keep
// the fat bit.
func (e *QueryEngine) Fat(v int) bool { return e.meta[v].fat() }

// AppendFatBits appends the fat bitmap — ceil(n/8) bytes, bit v MSB-first
// within its byte set iff vertex v is fat — and returns the extended slice.
// With AppendIDBits it is the routing table a scatter-gather router needs to
// compute which shard answers any pair. (Stubs preserve fat bits and
// identifiers, so every shard serves the same two blocks.)
func (e *QueryEngine) AppendFatBits(dst []byte) []byte {
	base := len(dst)
	dst = append(dst, make([]byte, (e.n+7)/8)...)
	for v := 0; v < e.n; v++ {
		if e.meta[v].fat() {
			dst[base+v/8] |= 1 << (7 - uint(v)%8)
		}
	}
	return dst
}

// AppendIDBits appends the identifier block (bitstr.IDBlockLen(n) bytes,
// vertex v's scheme identifier in bits [v·w, (v+1)·w), MSB first,
// w = ceil(log2 n)) and returns the extended slice. The read rule picks the
// label to search by comparing identifiers, so a router needs them to pick
// the shard.
func (e *QueryEngine) AppendIDBits(dst []byte) []byte {
	// Packed as a one-label slab: the writer stores only the block's bytes.
	base := len(dst)
	dst = append(dst, make([]byte, bitstr.IDBlockLen(e.n))...)
	sw := bitstr.NewSlabWriter(dst[base:])
	for v := range e.meta {
		sw.WriteUint(e.meta[v].id(), e.w)
	}
	sw.Flush()
	return dst
}
