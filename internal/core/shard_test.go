package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/gen"
)

// arenaOf returns an arena-backed labeling's slab, id-indexed label bit
// lengths and layout permutation — the three things the engine constructors
// and ShardLabelArenas take.
func arenaOf(t *testing.T, lab *Labeling) (slab []byte, bitLens []int, order []int32) {
	t.Helper()
	slab, order, ok := lab.ArenaLayout()
	if !ok {
		t.Fatal("labeling is not arena-backed")
	}
	return slab, lab.BitLens(), order
}

// degreeArena encodes a Chung–Lu graph of n vertices and returns the labeling's slab description, the one ShardLabelArenas
// splits.
func degreeArena(t *testing.T, n int, seed int64) (slab []byte, bitLens []int, order []int32) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return encodeArena(t, g, NewPowerLawScheme(2.5), false)
}

// shardTestEngines builds the full engine plus count sharded engines (each
// with its shard map attached) over one degree-ordered labeling.
func shardTestEngines(t *testing.T, count int, n int, seed int64) (*QueryEngine, []*QueryEngine) {
	t.Helper()
	slab, bitLens, order := degreeArena(t, n, seed)
	full, err := NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	arenas, err := ShardLabelArenas(slab, bitLens, order, count, ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*QueryEngine, count)
	for i, a := range arenas {
		e, err := NewQueryEngineFromPermutedArena(a.Slab, a.BitLens, order)
		if err != nil {
			t.Fatalf("shard %d engine: %v", i, err)
		}
		if err := e.SetShard(ShardMap{Count: count, Index: i, Fn: ShardRange}); err != nil {
			t.Fatalf("shard %d SetShard: %v", i, err)
		}
		engines[i] = e
	}
	return full, engines
}

// routeShard mirrors the router's rule: self and fat–fat pairs go to the min
// owner (any shard answers them); every other pair to the owner of the
// endpoint with the larger identifier, whose thin body is the one place it
// resolves.
func routeShard(e *QueryEngine, count, u, v int) int {
	n := e.N()
	ou, ov := ShardOwner(u, n, count), ShardOwner(v, n, count)
	switch {
	case u == v || e.meta[u].fat() && e.meta[v].fat():
		return min(ou, ov)
	case e.meta[u].id() > e.meta[v].id():
		return ou
	default:
		return ov
	}
}

// rangeEdges returns the vertices at the edges of every shard's owned range
// [lo, hi) — lo−1, lo, hi−1 and hi, where they are vertices — on the first,
// middle and last of count shards.
func rangeEdges(n, count int) []int {
	var edges []int
	for _, i := range []int{0, count / 2, count - 1} {
		lo, hi := ShardMap{Count: count, Index: i}.Range(n)
		for _, v := range []int{lo - 1, lo, hi - 1, hi} {
			if v >= 0 && v < n {
				edges = append(edges, v)
			}
		}
	}
	return edges
}

// TestShardOwnerPartition: range ownership partitions 0..n-1 into count
// non-empty contiguous, monotone classes whose bounds Range and sizes
// OwnedCount predict exactly.
func TestShardOwnerPartition(t *testing.T) {
	for _, n := range []int{7, 64, 1000} {
		for _, count := range []int{2, 3, 7} {
			for v := 0; v < n; v++ {
				o := ShardOwner(v, n, count)
				if o < 0 || o >= count {
					t.Fatalf("owner(%d) = %d of %d shards", v, o, count)
				}
				if lo, hi := (ShardMap{Count: count, Index: o}).Range(n); v < lo || v >= hi {
					t.Fatalf("n=%d count=%d: owner(%d) = %d, whose range is [%d, %d)", n, count, v, o, lo, hi)
				}
			}
			next := 0
			for i := 0; i < count; i++ {
				m := ShardMap{Count: count, Index: i, Fn: ShardRange}
				lo, hi := m.Range(n)
				if lo != next || hi <= lo || m.OwnedCount(n) != hi-lo {
					t.Fatalf("n=%d count=%d: shard %d owns [%d, %d) (%d vertices) after %d", n, count, i, lo, hi, m.OwnedCount(n), next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d count=%d: ranges end at %d", n, count, next)
			}
		}
	}
}

// TestShardedEngineNotResident: a pair with a thin endpoint resolves on one
// shard only, the owner of its larger-identifier endpoint; every other shard —
// the owner of the other endpoint included — must fail with ErrNotResident,
// never answer false from an absent label or from a list that need not hold
// the edge.
// The edge rows put both endpoints at range edges and ask every shard, so a
// residency test off by one at lo or hi shows here.
func TestShardedEngineNotResident(t *testing.T) {
	full, engines := shardTestEngines(t, 3, 400, 11)
	n := full.N()
	misrouted := 0
	for u := 0; u < n && misrouted < 200; u += 3 {
		for v := 0; v < n && misrouted < 200; v += 7 {
			if u == v || full.meta[u].fat() && full.meta[v].fat() {
				continue
			}
			right := routeShard(full, 3, u, v)
			for s, e := range engines {
				if right == s {
					continue
				}
				_, err := e.Adjacent(u, v)
				if !errors.Is(err, ErrNotResident) {
					t.Fatalf("pair (%d,%d) on shard %d, resolved by shard %d: err = %v, want ErrNotResident", u, v, s, right, err)
				}
				misrouted++
			}
		}
	}
	if misrouted == 0 {
		t.Fatal("test graph produced no misroutable pairs")
	}

	edges := rangeEdges(n, 3)
	foreign := 0
	for _, u := range edges {
		for _, v := range edges {
			want, err := full.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			holder := u
			if full.meta[v].id() > full.meta[u].id() {
				holder = v
			}
			for s, e := range engines {
				got, err := e.Adjacent(u, v)
				lo, hi := (ShardMap{Count: 3, Index: s}).Range(n)
				if u != v && !full.meta[holder].fat() && (holder < lo || holder >= hi) {
					if !errors.Is(err, ErrNotResident) {
						t.Fatalf("edge pair (%d,%d) on shard %d owning [%d, %d): thin holder %d is foreign, err = %v, want ErrNotResident",
							u, v, s, lo, hi, holder, err)
					}
					foreign++
					continue
				}
				if err != nil || got != want {
					t.Fatalf("edge pair (%d,%d) on shard %d owning [%d, %d) = %v, %v; full engine says %v", u, v, s, lo, hi, got, err, want)
				}
			}
		}
	}
	if foreign == 0 {
		t.Fatal("no edge pair had a foreign thin holder")
	}
}

// TestAppendPermutation: the engine's permutation block, appended after what
// dst held, decodes to its labeling's build order (nil is the identity, at
// n = 1), and is the same on a shard (an absent label's identifier is its
// rank) as on the full engine.
func TestAppendPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 5, 256, 400} {
		g, err := gen.ChungLuPowerLaw(n, 2.5, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := NewPowerLawScheme(2.5).Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewQueryEngine(lab)
		if err != nil {
			t.Fatal(err)
		}
		_, want, _ := lab.ArenaLayout()
		if want == nil {
			want = []int32{0}
		}
		block := e.AppendPermutation([]byte{0xAB})
		order, size, err := DecodePermutation(block[1:], n)
		if err != nil || block[0] != 0xAB || size != len(block)-1 || !slices.Equal(order, want) {
			t.Fatalf("n=%d: block %x decodes to %v (%v, %d bytes), want the build order %v", n, block, order, err, size, want)
		}
	}
	for _, n := range []int{0, 3} { // built over no order: the identity's block
		labels := make([]bitstr.String, n)
		identity := make([]int32, n)
		for v := range labels {
			var b bitstr.Builder
			b.AppendBit(false)
			b.AppendUint(uint64(v), bitstr.WidthFor(uint64(n)))
			labels[v], identity[v] = b.String(), int32(v)
		}
		slab, bitLens := bitstr.PackSlab(labels)
		e, err := NewQueryEngineFromPermutedArena(slab, bitLens, nil)
		if err != nil || !bytes.Equal(e.AppendPermutation(nil), AppendPermutation(nil, identity)) {
			t.Fatalf("n=%d in vertex order: %v, or a block other than the identity's", n, err)
		}
	}
	full, engines := shardTestEngines(t, 3, 400, 11)
	for i, e := range engines {
		if !bytes.Equal(e.AppendPermutation(nil), full.AppendPermutation(nil)) {
			t.Fatalf("shard %d serves a different permutation block than the full engine", i)
		}
	}
}

// TestSetShardRejectsWrongMap: attaching a shard map that does not match the
// slab's actual partition must fail — the wrong map claims foreign vertices
// whose thin labels are present and owns vertices whose labels are absent,
// and SetShard's presence check sees them; so must any map of two or more
// shards on a whole labeling, whose foreign thin labels are all present.
func TestSetShardRejectsWrongMap(t *testing.T) {
	slab, bitLens, order := degreeArena(t, 400, 11)
	arenas, err := ShardLabelArenas(slab, bitLens, order, 3, ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	// SetShard is one-shot per engine in spirit: use a fresh engine over
	// shard 0's slab.
	fresh, err := NewQueryEngineFromPermutedArena(arenas[0].Slab, arenas[0].BitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetShard(ShardMap{Count: 3, Index: 1, Fn: ShardRange}); err == nil {
		t.Fatal("SetShard accepted shard 0's slab under index 1")
	}
	if err := fresh.SetShard(ShardMap{Count: 2, Index: 0, Fn: ShardRange}); err == nil {
		t.Fatal("SetShard accepted shard 0 of 3's slab as shard 0 of 2")
	}
	if err := fresh.SetShard(ShardMap{Count: 3, Index: 3, Fn: ShardRange}); err == nil {
		t.Fatal("SetShard accepted an out-of-range index")
	}
	if err := fresh.SetShard(ShardMap{Count: 3, Index: 0, Fn: ShardFn(9)}); err == nil {
		t.Fatal("SetShard accepted an unknown ownership function")
	}
	if err := fresh.SetShard(ShardMap{Count: 3, Index: 0, Fn: ShardFn(1)}); err == nil || !strings.Contains(err.Error(), "hash is retired") {
		t.Fatalf("SetShard under the retired hash function: err = %v, want a refusal naming it", err)
	}
	if _, ok := fresh.Shard(); ok {
		t.Fatal("refused shard maps left the engine sharded")
	}
	if err := fresh.SetShard(ShardMap{Count: 3, Index: 0, Fn: ShardRange}); err != nil {
		t.Fatalf("SetShard refused the slab's own map: %v", err)
	}
	whole, err := NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.SetShard(ShardMap{Count: 3, Index: 0, Fn: ShardRange}); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("SetShard on a whole labeling: err = %v, want ErrBadLabel", err)
	}
}

// TestShardSplitRefusals: an absent label's identifier is its rank, so the
// split takes only a slab whose rank is every label's identifier, as every
// engine does — an id-ordered split, an id-ordered shard with absent labels,
// and absent labels beside a present label whose identifier is not its rank
// are refused with ErrBadLabel. A whole engine holding absent labels builds
// but owns no thin vertex: every pair a thin label answers is
// ErrNotResident, never false, and fat–fat pairs answer.
func TestShardSplitRefusals(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(400, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	idSlab, idLens, _ := encodeArena(t, g, NewPowerLawScheme(2.5), true)
	m := ShardMap{Count: 3, Index: 1, Fn: ShardRange}
	idRefused(t, idSlab, idLens, m)

	// The id-ordered slab under an explicit identity permutation: permuted,
	// but a rank is a vertex, not its identifier.
	ranks := make([]int32, len(idLens))
	for r := range ranks {
		ranks[r] = int32(r)
	}
	if _, err := ShardLabelArenas(idSlab, idLens, ranks, 3, ShardRange); !errors.Is(err, ErrBadLabel) || !strings.Contains(err.Error(), "not its rank") {
		t.Fatalf("split of a permuted slab whose ranks are not identifiers: err = %v, want ErrBadLabel", err)
	}
	shardSlab, shardLens := stripForeign(t, idSlab, idLens, ranks, m)
	if _, err := NewQueryEngineFromPermutedArena(shardSlab, shardLens, ranks); !errors.Is(err, ErrBadLabel) || !strings.Contains(err.Error(), "not its rank") {
		t.Fatalf("absent labels beside identifiers that are not ranks: err = %v, want ErrBadLabel", err)
	}

	slab, bitLens, order := degreeArena(t, 400, 11)
	full, err := NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	arenas, err := ShardLabelArenas(slab, bitLens, order, 3, ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewQueryEngineFromPermutedArena(arenas[1].Slab, arenas[1].BitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	fat, thin := 0, 0
	for u := 0; u < full.N(); u++ {
		for v := 0; v < full.N(); v += 3 {
			want, _ := full.Adjacent(u, v)
			got, err := e.Adjacent(u, v)
			batch, berr := e.AdjacentMany([][2]int{{u, v}}, nil)
			switch {
			case u == v || full.meta[u].fat() && full.meta[v].fat():
				if err != nil || got != want || berr != nil || batch[0] != want {
					t.Fatalf("(%d,%d) without a shard map: %v, %v / %v, %v; want %v", u, v, got, err, batch, berr, want)
				}
				fat++
			case !errors.Is(err, ErrNotResident) || !errors.Is(berr, ErrNotResident):
				t.Fatalf("(%d,%d) without a shard map: %v, %v / %v, %v; want ErrNotResident", u, v, got, err, batch, berr)
			default:
				thin++
			}
		}
	}
	if fat == 0 || thin == 0 {
		t.Fatalf("%d fat–fat or self and %d thin pairs: the row pins nothing", fat, thin)
	}
}

// TestShardLabelArenasValidates rejects degenerate splits.
func TestShardLabelArenasValidates(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(50, 2.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	bitLens := make([]int, g.N())
	for v := range bitLens {
		l, _ := lab.Label(v)
		bitLens[v] = l.Len()
	}
	if _, err := ShardLabelArenas(slab, bitLens, order, 1, ShardRange); err == nil {
		t.Fatal("accepted a 1-shard split")
	}
	if _, err := ShardLabelArenas(slab, bitLens, order, g.N()+1, ShardRange); err == nil {
		t.Fatal("accepted more shards than vertices")
	}
	if _, err := ShardLabelArenas(slab, bitLens, order, 2, ShardFn(7)); err == nil {
		t.Fatal("accepted an unknown ownership function")
	}
	if _, err := ShardLabelArenas(slab, bitLens, order, 2, ShardFn(1)); err == nil || !strings.Contains(err.Error(), "re-run pllabel -shards") {
		t.Fatalf("split under the retired hash function: err = %v, want a refusal naming it", err)
	}
	if _, err := ShardLabelArenas(slab, bitLens, nil, 2, ShardRange); !errors.Is(err, ErrBadLabel) || !strings.Contains(err.Error(), "id-ordered") {
		t.Fatalf("split of an id-ordered slab: err = %v, want ErrBadLabel naming the layout", err)
	}
}

// TestShardLabelArenasParallelMatchesSerial: the split fills its shards on up
// to GOMAXPROCS goroutines; whatever that is, and however the shard count
// divides among them, every arena is the one a single goroutine builds. CI
// runs it under -race.
func TestShardLabelArenasParallelMatchesSerial(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(600, 2.5, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	slab, bitLens, order := encodeArena(t, g, NewPowerLawScheme(2.5), false)
	for _, count := range []int{2, 3, 7, 16} {
		runtime.GOMAXPROCS(1)
		want, err := ShardLabelArenas(slab, bitLens, order, count, ShardRange)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 7} {
			runtime.GOMAXPROCS(procs)
			got, err := ShardLabelArenas(slab, bitLens, order, count, ShardRange)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("count %d: arenas at GOMAXPROCS %d differ from the serial split's", count, procs)
			}
		}
	}
}

// TestFatCount: k is the number of fat vertices and the same on every shard
// (fat labels are replicated, absent ones thin). Labels the router could not
// route — a fat vertex whose identifier is at or above k, or a thin one below
// it — break the slab contract and are refused at build, by the error naming
// the first such label's vertex and rank.
func TestFatCount(t *testing.T) {
	full, engines := shardTestEngines(t, 3, 400, 11)
	want := 0
	for _, mv := range full.meta {
		if mv.fat() {
			want++
		}
	}
	for i, e := range append([]*QueryEngine{full}, engines...) {
		if k := e.FatCount(); k != want || want == 0 {
			t.Fatalf("engine %d: FatCount = %d; want %d fat vertices", i, k, want)
		}
	}
	// Two-vertex labelings in vertex order with one fat label of a one-bit
	// vector: a fat identifier not below k, a thin one below it, or both.
	label := func(fat bool, id uint64) bitstr.String {
		var b bitstr.Builder
		b.AppendBit(fat)
		b.AppendUint(id, 1)
		if fat {
			b.AppendBit(false) // a one-bit fat vector
		}
		return b.String()
	}
	for _, tc := range []struct {
		labels []bitstr.String
		named  string
	}{
		{[]bitstr.String{label(false, 0), label(true, 1)}, "label 1 at rank 1: fat after a thin label"},
		{[]bitstr.String{label(true, 0), label(false, 0)}, "label 1 at rank 1: identifier 0, not its rank"},
		{[]bitstr.String{label(true, 1), label(false, 1)}, "label 0 at rank 0: identifier 1, not its rank"},
	} {
		slab, bitLens := bitstr.PackSlab(tc.labels)
		if _, err := NewQueryEngineFromPermutedArena(slab, bitLens, nil); !errors.Is(err, ErrBadLabel) || !strings.Contains(err.Error(), tc.named) {
			t.Errorf("err = %v, want ErrBadLabel naming %q", err, tc.named)
		}
	}
}

// TestFatCountFlippedFatBits: the build names the label that breaks the slab
// contract. Each vertex's fat bit is flipped in turn in a copy of a
// degree-ordered slab, and the build refuses every copy by an error naming
// that vertex and its rank: a fat label turned thin carries a k-bit body, not
// a whole number of identifiers (k is not a multiple of w here), and a thin
// label turned fat is fat after a thin one, or, at rank k, a fat body of the
// wrong length.
func TestFatCountFlippedFatBits(t *testing.T) {
	slab, bitLens, order := degreeArena(t, 300, 5)
	full, err := NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	if k := full.FatCount(); k == 0 || k%full.w == 0 {
		t.Fatalf("fat count %d at id width %d: a flipped fat label would parse as thin", k, full.w)
	}
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	for r := 0; walk.Next(); r++ {
		v, off := walk.Label()
		flipped := bytes.Clone(slab)
		flipped[off>>3] ^= 0x80
		_, err := NewQueryEngineFromPermutedArena(flipped, bitLens, order)
		if named := fmt.Sprintf("label %d at rank %d: ", v, r); !errors.Is(err, ErrBadLabel) || !strings.Contains(err.Error(), named) {
			t.Fatalf("vertex %d flipped: build err %v, want ErrBadLabel naming %q", v, err, named)
		}
	}
}
