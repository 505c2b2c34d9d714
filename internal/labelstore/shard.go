package labelstore

import (
	"fmt"
	"strconv"

	"repro/internal/bitstr"
	"repro/internal/core"
)

// Shard block: the format extension for partitioned stores.
//
// A sharded store (pllabel -shards N) is one shard of a degree-ordered
// fat/thin labeling: it holds the full labels of the vertices it owns plus
// every fat label (replicated fat–fat data); a foreign thin label is absent
// — 0 bits, one byte in the lens block, nothing in the blob — because its
// identifier is its rank in the permutation block (core.ShardLabelArenas).
// The store announces itself with a "shards" param (the shard count), which
// — exactly like the "layout" param and its permutation block — keys a
// binary shard block between the permutation block and the body blob:
//
//	shard   uvarint shard index, u8 ownership function (0 = range, the
//	        only value defined), uvarint owned-vertex count; present iff
//	        params carries "shards"
//
// Readers too old to know the param fail loudly on the extra bytes (the
// blob-length check cannot match). The block is validated on open the same
// way the permutation block is: structurally (index < count, the range
// function, the owned count recomputed from the range and compared) and
// against the labels themselves (the store is permuted, every owned label
// present and every foreign thin label absent) — a corrupted or mislabeled
// shard map errors at load, it never silently mis-answers for vertices the
// shard does not hold. A store from a pllabel that still wrote hash
// ownership (byte 1), or 1+w-bit header stubs for foreign thin labels, is
// refused by that byte or that length: "(re-run pllabel -shards)".

// shardsKey is the params entry announcing a sharded store; its value is the
// decimal shard count.
const shardsKey = "shards"

// shardBlock is the parsed shard header of a sharded store.
type shardBlock struct {
	m     core.ShardMap
	owned int
}

// Shard returns the shard map of a partitioned store, or ok=false for an
// ordinary (whole-labeling) store.
func (f *File) Shard() (core.ShardMap, bool) {
	if f.shard == nil {
		return core.ShardMap{}, false
	}
	return f.shard.m, true
}

// NewShardArenaFile builds one shard's store over a per-shard arena produced
// by core.ShardLabelArenas: slab/bitLens/order exactly as
// NewPermutedArenaFile takes them, plus the shard map the arena was split
// under. The shard geometry is validated against the labels here, at
// construction, with the same checks every reader re-runs at load.
func NewShardArenaFile(scheme string, params map[string]string, slab []byte, bitLens []int, order []int32, m core.ShardMap) (*File, error) {
	sb := &shardBlock{m: m, owned: m.OwnedCount(len(bitLens))}
	if err := sb.check(len(bitLens)); err != nil {
		return nil, err
	}
	f := &File{Scheme: scheme, Params: params, arena: slab, bitLens: bitLens, order: order, shard: sb}
	if err := f.adoptArena(true); err != nil {
		return nil, err
	}
	return f, nil
}

// check validates a shard block against the label count: the map must be
// well-formed for this n and the recorded owned count must match the size of
// the owned range. The rule that ties the block to the labels — foreign thin
// labels are absent — is checkLabel's, which adoptArena runs on every label.
func (sb *shardBlock) check(n int) error {
	m := sb.m
	if m.Count < 2 {
		return fmt.Errorf("%w: sharded store with %d shards (want >= 2)", ErrFormat, m.Count)
	}
	if err := m.Validate(n); err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if want := m.OwnedCount(n); sb.owned != want {
		return fmt.Errorf("%w: shard %d/%d records %d owned vertices, its range holds %d",
			ErrFormat, m.Index, m.Count, sb.owned, want)
	}
	return nil
}

// checkLabel holds label v of the shard's slab — bits bits at bit off,
// foreign when outside the owned range — to the shard rule: an owned label is
// present, with at least a fat/thin header of header bits; a foreign one is
// absent or fat (read off its first bit). A foreign label exactly one header
// long is the header stub a pllabel before absent labels wrote.
func (sb *shardBlock) checkLabel(slab []byte, v int, off int64, bits, header int, foreign bool) error {
	switch {
	case bits == 0 && !foreign:
		return fmt.Errorf("%w: vertex %d is owned by shard %d/%d yet its label is absent", ErrFormat, v, sb.m.Index, sb.m.Count)
	case bits == 0:
		return nil
	case bits < header:
		return fmt.Errorf("%w: sharded store label %d has %d bits, fat/thin header needs %d", ErrFormat, v, bits, header)
	case !foreign:
		return nil
	case bits == header:
		return fmt.Errorf("%w: vertex %d is foreign to shard %d/%d and carries a %d-bit header stub (re-run pllabel -shards)",
			ErrFormat, v, sb.m.Index, sb.m.Count, bits)
	case bitstr.SlabReadBits(slab, off, 1) == 0:
		return fmt.Errorf("%w: vertex %d is foreign to shard %d/%d yet its thin label has %d bits, not 0",
			ErrFormat, v, sb.m.Index, sb.m.Count, bits)
	}
	return nil
}

// parseShardCount interprets the "shards" param value.
func parseShardCount(val string) (int, error) {
	count, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("%w: shards param %q: %v", ErrFormat, val, err)
	}
	if count < 2 || int64(count) > maxLabels {
		return 0, fmt.Errorf("%w: shards param %d", ErrFormat, count)
	}
	return count, nil
}

// newShardBlock assembles and checks the parsed block fields (validation
// against the labels happens in adoptArena, once the File exists).
func newShardBlock(count int, index uint64, fnByte byte, owned uint64, n int) (*shardBlock, error) {
	if index >= uint64(count) {
		return nil, fmt.Errorf("%w: shard index %d of %d shards", ErrFormat, index, count)
	}
	if owned > uint64(n) {
		return nil, fmt.Errorf("%w: shard owns %d of %d vertices", ErrFormat, owned, n)
	}
	sb := &shardBlock{
		m:     core.ShardMap{Count: count, Index: int(index), Fn: core.ShardFn(fnByte)},
		owned: int(owned),
	}
	return sb, sb.check(n)
}
