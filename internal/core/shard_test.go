package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
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

// shardTestEngines builds the full engine plus count sharded engines (each
// with its shard map attached) over one labeling of g.
func shardTestEngines(t *testing.T, lay Layout, count int, fn ShardFn, n int, seed int64) (*QueryEngine, []*QueryEngine) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := NewPowerLawScheme(2.5)
	s.SetLayout(lay)
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, bitLens, order := arenaOf(t, lab)
	full, err := NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	arenas, err := ShardLabelArenas(slab, bitLens, order, count, fn)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*QueryEngine, count)
	for i, a := range arenas {
		e, err := NewQueryEngineFromPermutedArena(a.Slab, a.BitLens, order)
		if err != nil {
			t.Fatalf("shard %d engine: %v", i, err)
		}
		if err := e.SetShard(ShardMap{Count: count, Index: i, Fn: fn}); err != nil {
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
func routeShard(e *QueryEngine, fn ShardFn, count, u, v int) int {
	n := e.N()
	ou, ov := ShardOwner(fn, u, n, count), ShardOwner(fn, v, n, count)
	switch {
	case u == v || e.Fat(u) && e.Fat(v):
		return min(ou, ov)
	case e.meta[u].id() > e.meta[v].id():
		return ou
	default:
		return ov
	}
}

// TestShardOwnerPartition: both ownership functions partition 0..n-1 into
// count non-empty classes whose sizes OwnedCount predicts exactly, and range
// ownership is contiguous and monotone.
func TestShardOwnerPartition(t *testing.T) {
	for _, fn := range []ShardFn{ShardRange, ShardHash} {
		for _, n := range []int{7, 64, 1000} {
			for _, count := range []int{2, 3, 7} {
				got := make([]int, count)
				prev := 0
				for v := 0; v < n; v++ {
					o := ShardOwner(fn, v, n, count)
					if o < 0 || o >= count {
						t.Fatalf("%v: owner(%d) = %d of %d shards", fn, v, o, count)
					}
					got[o]++
					if fn == ShardRange {
						if o < prev {
							t.Fatalf("range owner not monotone at v=%d: %d after %d", v, o, prev)
						}
						prev = o
					}
				}
				for i, c := range got {
					m := ShardMap{Count: count, Index: i, Fn: fn}
					if want := m.OwnedCount(n); c != want {
						t.Fatalf("%v n=%d count=%d: shard %d owns %d, OwnedCount says %d", fn, n, count, i, c, want)
					}
					if fn == ShardRange && c == 0 {
						t.Fatalf("range shard %d/%d empty at n=%d", i, count, n)
					}
				}
			}
		}
	}
}

// TestShardedEngineEquivalence is the core correctness property of the
// sharded layout: for every pair, the shard the routing rule picks answers
// bit-for-bit identically to the full engine — across both ownership
// functions and both physical layouts, over every edge plus random pairs.
func TestShardedEngineEquivalence(t *testing.T) {
	for _, lay := range []Layout{LayoutID, LayoutDegree} {
		for _, fn := range []ShardFn{ShardRange, ShardHash} {
			full, engines := shardTestEngines(t, lay, 3, fn, 400, 11)
			n := full.N()
			rng := rand.New(rand.NewSource(99))
			check := func(u, v int) {
				want, err := full.Adjacent(u, v)
				if err != nil {
					t.Fatal(err)
				}
				s := routeShard(full, fn, 3, u, v)
				got, err := engines[s].Adjacent(u, v)
				if err != nil {
					t.Fatalf("layout=%v fn=%v: routed (%d,%d) to shard %d: %v", lay, fn, u, v, s, err)
				}
				if got != want {
					t.Fatalf("layout=%v fn=%v: (%d,%d) on shard %d = %v, full engine says %v", lay, fn, u, v, s, got, want)
				}
			}
			for i := 0; i < 4000; i++ {
				check(rng.Intn(n), rng.Intn(n))
			}
			for v := 0; v < n; v++ {
				check(v, v)
			}
		}
	}
}

// TestShardedEngineNotResident: a pair with a thin endpoint resolves on one
// shard only, the owner of its larger-identifier endpoint; every other shard —
// the owner of the other endpoint included — must fail with ErrNotResident,
// never answer false from a stub or from a list that need not hold the edge.
func TestShardedEngineNotResident(t *testing.T) {
	full, engines := shardTestEngines(t, LayoutID, 3, ShardRange, 400, 11)
	n := full.N()
	misrouted := 0
	for u := 0; u < n && misrouted < 200; u += 3 {
		for v := 0; v < n && misrouted < 200; v += 7 {
			if u == v || full.Fat(u) && full.Fat(v) {
				continue
			}
			right := routeShard(full, ShardRange, 3, u, v)
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
}

// TestAppendIDBits: the identifier block holds every label's own identifier at
// bit v·w, is bitstr.IDBlockLen bytes appended after what dst held, and is the same on
// a shard (stubs keep identifiers) as on the full engine — at widths that do
// and do not divide a byte, and on the degenerate one-vertex engine.
func TestAppendIDBits(t *testing.T) {
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
		w := bitstr.WidthFor(uint64(n))
		block := e.AppendIDBits([]byte{0xAB})
		if len(block) != 1+bitstr.IDBlockLen(n) || block[0] != 0xAB {
			t.Fatalf("n=%d: block of %d bytes starting %#x, want %d after the prefix", n, len(block), block[0], bitstr.IDBlockLen(n))
		}
		ids, err := bitstr.Wrap(block[1:], n*w)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			l, _ := lab.Label(v)
			if got, want := ids.MustPeekUint(v*w, w), l.MustPeekUint(1, w); w > 0 && got != want {
				t.Fatalf("n=%d: block holds identifier %d for vertex %d, its label says %d", n, got, v, want)
			}
		}
	}
	full, engines := shardTestEngines(t, LayoutDegree, 3, ShardHash, 400, 11)
	for i, e := range engines {
		if !bytes.Equal(e.AppendIDBits(nil), full.AppendIDBits(nil)) {
			t.Fatalf("shard %d serves a different identifier block than the full engine", i)
		}
	}
}

// TestSetShardRejectsWrongMap: attaching a shard map whose index does not
// match the slab's actual partition must fail — thin labels the wrong map
// claims foreign still carry bodies, and SetShard's stub check sees them.
func TestSetShardRejectsWrongMap(t *testing.T) {
	_, engines := shardTestEngines(t, LayoutID, 3, ShardRange, 400, 11)
	// Rebuild shard 0's engine (SetShard is one-shot per engine in spirit;
	// use a fresh engine over the same slab).
	e := engines[0]
	fresh, err := NewQueryEngineFromPermutedArena(e.slab, rebuildBitLens(e), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetShard(ShardMap{Count: 3, Index: 1, Fn: ShardRange}); err == nil {
		t.Fatal("SetShard accepted shard 0's slab under index 1")
	}
	if err := fresh.SetShard(ShardMap{Count: 3, Index: 3, Fn: ShardRange}); err == nil {
		t.Fatal("SetShard accepted an out-of-range index")
	}
	if err := fresh.SetShard(ShardMap{Count: 3, Index: 0, Fn: ShardFn(9)}); err == nil {
		t.Fatal("SetShard accepted an unknown ownership function")
	}
}

// rebuildBitLens recovers an engine's per-label bit lengths from its meta
// (test helper; header + body units).
func rebuildBitLens(e *QueryEngine) []int {
	lens := make([]int, e.n)
	for v := 0; v < e.n; v++ {
		m := e.meta[v]
		body := int(m.cnt())
		if !m.fat() {
			body *= e.w
		}
		lens[v] = 1 + e.w + body
	}
	return lens
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
	for _, lay := range []Layout{LayoutID, LayoutDegree} {
		s := NewPowerLawScheme(2.5)
		s.SetLayout(lay)
		lab, err := s.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		slab, bitLens, order := arenaOf(t, lab)
		for _, fn := range []ShardFn{ShardRange, ShardHash} {
			for _, count := range []int{2, 3, 7, 16} {
				runtime.GOMAXPROCS(1)
				want, err := ShardLabelArenas(slab, bitLens, order, count, fn)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{2, 7} {
					runtime.GOMAXPROCS(procs)
					got, err := ShardLabelArenas(slab, bitLens, order, count, fn)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v %v count %d: arenas at GOMAXPROCS %d differ from the serial split's", lay, fn, count, procs)
					}
				}
			}
		}
	}
}
