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
// fat–fat pair. Of any other vertex it needs only the identifier, to pick
// which endpoint's label a pair reads — and in the degree layout the label at
// slab rank r has identifier r, so the layout permutation a shard store
// carries already records every identifier. A foreign thin label is
// therefore absent: 0 bits, no slab bytes, its identifier its rank. A pair
// whose answering label is foreign fails the engine's range check with
// ErrNotResident, so an absent label is never searched.

// ShardFn names the vertex→shard ownership function. It is serialized in the
// label-store shard block and the shard-info handshake, so values are stable
// wire constants; ShardRange is the only one defined. The byte stays so that
// range stores and frames keep their bytes, and a store or handshake carrying
// the retired hash function's byte (1) is refused by value.
type ShardFn uint8

// ShardRange assigns contiguous vertex ranges: owner(v) = ⌊v·S/n⌋. The fat
// vertices are resident on every shard, so residency is one range compare.
const ShardRange ShardFn = 0

// shardHashRetired is the byte the retired hash ownership function wrote.
const shardHashRetired ShardFn = 1

func (f ShardFn) String() string {
	switch f {
	case ShardRange:
		return "range"
	case shardHashRetired:
		return "hash"
	default:
		return fmt.Sprintf("shardfn(%d)", uint8(f))
	}
}

// Valid reports whether f is a defined ownership function.
func (f ShardFn) Valid() bool { return f == ShardRange }

// errShardFn is the refusal of an undefined ownership function.
func errShardFn(f ShardFn) error {
	if f == shardHashRetired {
		return errors.New("core: shard ownership function hash is retired (re-run pllabel -shards)")
	}
	return fmt.Errorf("core: unknown shard ownership function %d", uint8(f))
}

// ShardOwner returns the shard owning vertex v among count shards of an
// n-vertex labeling. Callers guarantee 0 <= v < n and count >= 1.
func ShardOwner(v, n, count int) int { return int(int64(v) * int64(count) / int64(n)) }

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
		return errShardFn(m.Fn)
	}
	return nil
}

// Range returns the vertices this shard owns, [lo, hi) =
// [⌈index·n/count⌉, ⌈(index+1)·n/count⌉): the v with ⌊v·count/n⌋ == index,
// found by inverting ShardOwner's floor division.
func (m ShardMap) Range(n int) (lo, hi int) {
	lo = int((int64(m.Index)*int64(n) + int64(m.Count) - 1) / int64(m.Count))
	hi = int((int64(m.Index+1)*int64(n) + int64(m.Count) - 1) / int64(m.Count))
	return lo, hi
}

// OwnedCount returns the number of vertices this shard owns — the figure the
// label-store shard block records so a corrupted index is caught
// structurally at load.
func (m ShardMap) OwnedCount(n int) int {
	lo, hi := m.Range(n)
	return hi - lo
}

// ShardArena is one shard's label slab: resident labels (owned vertices plus
// every fat vertex) copied verbatim, foreign thin labels absent (0 bits).
// BitLens is id-indexed like the source; the physical rank order is
// preserved, so each shard carries the source's layout permutation.
type ShardArena struct {
	Slab    []byte
	BitLens []int
	// Owned is the number of vertices the shard owns (fat vertices it does
	// not own are resident but not counted).
	Owned int
}

// ShardLabelArenas splits a degree-ordered fat/thin label slab — one whose
// label at rank r has identifier r — into count per-shard arenas under the
// given ownership function. slab/bitLens/order describe the source exactly
// as NewQueryEngineFromPermutedArena accepts them; every header is read
// through the same check, so a label whose identifier is not its rank is
// refused with ErrBadLabel, as is an id-ordered source (order nil), which a
// shard store cannot carry. A shard engine reads an absent label's
// identifier off its rank. The fat–fat data is replicated to every shard;
// thin labels are kept in full only on their owner and are absent elsewhere.
// The engines built over the shards hold them to the rest of the contract.
//
// One walk over the source validates it and reads each label's offset, fat
// bit and identifier off the slab; the shards are then sized and filled
// independently of one another, on up to GOMAXPROCS goroutines.
func ShardLabelArenas(slab []byte, bitLens []int, order []int32, count int, fn ShardFn) ([]ShardArena, error) {
	n := len(bitLens)
	if count < 2 || count > n {
		return nil, fmt.Errorf("core: splitting %d labels into %d shards (want 2..n)", n, count)
	}
	if !fn.Valid() {
		return nil, errShardFn(fn)
	}
	if order == nil {
		return nil, fmt.Errorf("%w: splitting an id-ordered slab: a shard store needs the degree layout, whose rank is each label's identifier", ErrBadLabel)
	}
	w := bitstr.WidthFor(uint64(n))
	if w > 32 {
		return nil, fmt.Errorf("%w: %d labels need id width %d, engine packs ids in 32 bits", ErrBadLabel, n, w)
	}
	// src[r] describes the label at slab rank r: where it starts, and the one
	// shard that keeps it — every shard, for a fat label.
	const everyShard = -1
	type srcLabel struct {
		home int32
		off  int64
	}
	src := make([]srcLabel, 0, n)
	shards := make([]ShardArena, count)
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	for walk.Next() {
		v, off := walk.Label()
		word, err := fatThinHeader(slab, off, bitLens[v], w, v, len(src))
		if err != nil {
			return nil, err
		}
		home := ShardOwner(v, n, count)
		shards[home].Owned++
		if word&1 != 0 {
			home = everyShard
		}
		src = append(src, srcLabel{home: int32(home), off: off})
	}
	if err := walk.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}

	fill := func(s int) {
		// Pass 1: sizes. Resident labels keep their bytes, foreign thin labels
		// have none.
		sh := &shards[s]
		sh.BitLens = make([]int, n)
		size := 0
		for r, l := range src {
			if l.home == everyShard || int(l.home) == s {
				v := order[r]
				sh.BitLens[v] = bitLens[v]
				size += bitstr.SlabLabelBytes(bitLens[v])
			}
		}
		// Pass 2: copy in rank order, so the shard slab keeps the source's
		// physical layout.
		sh.Slab = make([]byte, bitstr.SlabSize(size))
		at := 0
		for r, l := range src {
			if l.home == everyShard || int(l.home) == s {
				start := int(l.off >> 3)
				at += copy(sh.Slab[at:], slab[start:start+bitstr.SlabLabelBytes(bitLens[order[r]])])
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
// label — the larger-identifier endpoint's — is a foreign thin label, absent
// on this shard: a misrouted pair. The router's job is to make this
// unreachable; the engine's range check makes it loud.
var ErrNotResident = errors.New("core: query not resident on this shard")

// notResident is the error of a pair whose answering label the engine does
// not own.
func (e *QueryEngine) notResident(u, v int) error {
	if e.shard.Count == 0 {
		return fmt.Errorf("%w: (%d,%d) on an engine holding absent labels and no shard map", ErrNotResident, u, v)
	}
	return fmt.Errorf("%w: (%d,%d) on shard %d/%d", ErrNotResident, u, v, e.shard.Index, e.shard.Count)
}

// SetShard marks the engine as serving one shard of a partitioned store: its
// owned range becomes the map's, and the map is cross-checked against the
// loaded labels — a thin label is present exactly when its vertex is inside
// the range — so a store loaded under the wrong shard map, or a whole
// labeling under any map, fails here, at attach time, not at query time.
// Like AttachMetrics it must be called before the engine is shared across
// goroutines.
func (e *QueryEngine) SetShard(m ShardMap) error {
	if err := m.Validate(e.n); err != nil {
		return err
	}
	lo, hi := m.Range(e.n)
	for v, mv := range e.meta {
		if inside := lo <= v && v < hi; !mv.fat() && mv.absent() == inside {
			if inside {
				return fmt.Errorf("%w: vertex %d is owned by shard %d/%d yet its label is absent (wrong shard map?)",
					ErrBadLabel, v, m.Index, m.Count)
			}
			return fmt.Errorf("%w: vertex %d is foreign to shard %d/%d yet its thin label is present (wrong shard map?)",
				ErrBadLabel, v, m.Index, m.Count)
		}
	}
	e.lo, e.hi, e.shard = lo, hi, m
	return nil
}

// Shard returns the shard map attached by SetShard; ok=false for an
// unsharded engine.
func (e *QueryEngine) Shard() (ShardMap, bool) { return e.shard, e.shard.Count != 0 }

// owns reports whether v is in the engine's owned range (every vertex, on an
// unsharded engine).
func (e *QueryEngine) owns(v int) bool { return e.lo <= v && v < e.hi }

// Resident reports whether vertex v's full label body is present: v is owned,
// or fat (fat labels are replicated to every shard).
func (e *QueryEngine) Resident(v int) bool { return e.owns(v) || e.meta[v].fat() }

// FatCount returns k, the number of fat vertices. The build's slab contract
// puts the fat labels at ranks 0..k-1, whose identifiers are their ranks, so
// vertex v is fat exactly when its identifier is below k — the rule a
// router's routing table rests on. With AppendPermutation it is everything a
// router needs to compute which shard answers any pair (an absent label is
// thin and its identifier is its rank, so every shard reports the same k and
// block).
func (e *QueryEngine) FatCount() int { return e.fatCount }

// AppendPermutation appends the permutation block (AppendPermutation) of the
// engine's identifier order — rank r ↦ the vertex whose identifier is r,
// which the build's slab contract makes the slab order of the store it
// serves — and returns the extended slice. The read rule picks the label to
// search by comparing identifiers, so a router needs them to pick the shard.
func (e *QueryEngine) AppendPermutation(dst []byte) []byte {
	order := make([]int32, e.n)
	for v, m := range e.meta {
		order[m.id()] = int32(v)
	}
	return AppendPermutation(dst, order)
}
