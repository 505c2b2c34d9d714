package adjserve

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// shardEngines labels a power-law graph in the degree layout, splits the
// arena into count range shards, and returns the full engine plus the
// per-shard engines (shard maps set).
func shardEngines(t testing.TB, n, count int, seed int64) (*core.QueryEngine, []*core.QueryEngine) {
	t.Helper()
	_, full, engines := shardEnginesOf(t, n, count, seed, core.ThinEdgesOnce)
	return full, engines
}

// shardEnginesOf is shardEngines over a chosen thin-edge layout, returning
// the graph as well.
func shardEnginesOf(t testing.TB, n, count int, seed int64, thin core.ThinEdges) (*graph.Graph, *core.QueryEngine, []*core.QueryEngine) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewPowerLawScheme(2.5)
	s.SetThinEdges(thin)
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, ok := lab.ArenaLayout()
	if !ok {
		t.Fatal("pipeline labeling is not arena-backed")
	}
	bitLens := make([]int, g.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		bitLens[v] = l.Len()
	}
	full, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	arenas, err := core.ShardLabelArenas(slab, bitLens, order, count, core.ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.QueryEngine, count)
	for i, a := range arenas {
		e, err := core.NewQueryEngineFromPermutedArena(a.Slab, a.BitLens, order)
		if err != nil {
			t.Fatalf("shard %d engine: %v", i, err)
		}
		if err := e.SetShard(core.ShardMap{Count: count, Index: i, Fn: core.ShardRange}); err != nil {
			t.Fatalf("shard %d SetShard: %v", i, err)
		}
		engines[i] = e
	}
	return g, full, engines
}

// TestShardInfoUnsharded: a plain server answers the handshake with the
// trivial 1-shard map, its engine's fat count and permutation block, so a
// router can front it.
func TestShardInfoUnsharded(t *testing.T) {
	eng := testEngine(t, 300, 5)
	addr, _, _ := startServer(t, eng, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	si, err := c.ShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if si.N != eng.N() {
		t.Fatalf("shard-info n = %d, engine has %d", si.N, eng.N())
	}
	if si.Map != trivialShardMap {
		t.Fatalf("unsharded shard map %+v, want %+v", si.Map, trivialShardMap)
	}
	if k := eng.FatCount(); si.K != k || k == 0 {
		t.Fatalf("fat count %d, engine has %d", si.K, k)
	}
	if !bytes.Equal(si.IDBits, eng.AppendPermutation(nil)) {
		t.Fatal("permutation block differs from the engine's")
	}
	if _, size, err := core.DecodePermutation(si.IDBits, si.N); err != nil || size != len(si.IDBits) {
		t.Fatalf("permutation block: size %d of %d, %v", size, len(si.IDBits), err)
	}
}

// TestShardInfoSharded: each shard server reports its own index under the
// shared count/fn, and all report the full engine's fat count and
// permutation block (fat labels are replicated, and an absent label is thin
// with its rank for identifier).
func TestShardInfoSharded(t *testing.T) {
	full, engines := shardEngines(t, 300, 3, 5)
	k := full.FatCount()
	for i, e := range engines {
		addr, _, _ := startServer(t, e, 0)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		si, err := c.ShardInfo()
		c.Close()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if want := (core.ShardMap{Count: 3, Index: i, Fn: core.ShardRange}); si.Map != want {
			t.Fatalf("shard %d map %+v, want %+v", i, si.Map, want)
		}
		if si.N != full.N() {
			t.Fatalf("shard %d n = %d, want %d", i, si.N, full.N())
		}
		if si.K != k {
			t.Fatalf("shard %d fat count %d, full engine has %d", i, si.K, k)
		}
		if !bytes.Equal(si.IDBits, full.AppendPermutation(nil)) {
			t.Fatalf("shard %d permutation block differs from the full engine's (an absent label's identifier is its rank)", i)
		}
	}
}

func TestClientPending(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c) // swallow frames, never answer
		c.Close()
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending() = %d before any call", got)
	}
	done := make(chan struct{})
	go func() {
		c.Adjacent(0, 1) // blocks until Close fails it
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("Pending() never reached 1 (now %d)", c.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	<-done
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Close", got)
	}
}

// TestAdjacentManyZeroAlloc asserts the pooled steady state of the client
// batch path: with a warm connection, recycled calls, and an out slice of
// sufficient capacity, AdjacentMany performs zero heap allocations per batch
// (the server shares the process, so its frame loop is covered too).
func TestAdjacentManyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	eng := testEngine(t, 400, 3)
	addr, _, _ := startServer(t, eng, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pairs := randomPairs(eng.N(), 512, 7)
	out := make([]bool, 0, len(pairs))
	// Warm the connection, the pools, and both sides' I/O buffers.
	for i := 0; i < 8; i++ {
		if _, err := c.AdjacentMany(pairs, out[:0]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.AdjacentMany(pairs, out[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AdjacentMany allocates %.1f times per batch, want 0", allocs)
	}
}
