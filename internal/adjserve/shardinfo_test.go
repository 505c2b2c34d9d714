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

// shardEngines labels a power-law graph, splits the arena into count shards,
// and returns the full engine plus the per-shard engines (shard maps set).
func shardEngines(t testing.TB, n, count int, fn core.ShardFn, seed int64) (*core.QueryEngine, []*core.QueryEngine) {
	t.Helper()
	_, full, engines := shardEnginesOf(t, n, count, fn, seed, core.LayoutDegree, core.ThinEdgesOnce)
	return full, engines
}

// shardEnginesOf is shardEngines over a chosen slab layout and thin-edge
// layout, returning the graph as well.
func shardEnginesOf(t testing.TB, n, count int, fn core.ShardFn, seed int64, lay core.Layout, thin core.ThinEdges) (*graph.Graph, *core.QueryEngine, []*core.QueryEngine) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewPowerLawScheme(2.5)
	s.SetLayout(lay)
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
	arenas, err := core.ShardLabelArenas(slab, bitLens, order, count, fn)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.QueryEngine, count)
	for i, a := range arenas {
		e, err := core.NewQueryEngineFromPermutedArena(a.Slab, a.BitLens, order)
		if err != nil {
			t.Fatalf("shard %d engine: %v", i, err)
		}
		if err := e.SetShard(core.ShardMap{Count: count, Index: i, Fn: fn}); err != nil {
			t.Fatalf("shard %d SetShard: %v", i, err)
		}
		engines[i] = e
	}
	return g, full, engines
}

// TestShardInfoUnsharded: a plain server answers the handshake with the
// trivial 1-shard map and its engine's fat bitmap, so a router can front it.
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
	if want := (core.ShardMap{Count: 1, Index: 0, Fn: core.ShardRange}); si.Map != want {
		t.Fatalf("unsharded shard map %+v, want %+v", si.Map, want)
	}
	for v := 0; v < eng.N(); v++ {
		if si.Fat(v) != eng.Fat(v) {
			t.Fatalf("fat bit of vertex %d = %v, engine says %v", v, si.Fat(v), eng.Fat(v))
		}
	}
	if !bytes.Equal(si.IDBits, eng.AppendIDBits(nil)) {
		t.Fatal("identifier block differs from the engine's")
	}
	if _, err := checkIDs(si); err != nil {
		t.Fatalf("identifier block: %v", err)
	}
}

// TestShardInfoSharded: each shard server reports its own index under the
// shared count/fn, and all report byte-identical fat bitmaps (fat labels are
// replicated, so every shard knows the full fat set).
func TestShardInfoSharded(t *testing.T) {
	full, engines := shardEngines(t, 300, 3, core.ShardHash, 5)
	var first []byte
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
		if want := (core.ShardMap{Count: 3, Index: i, Fn: core.ShardHash}); si.Map != want {
			t.Fatalf("shard %d map %+v, want %+v", i, si.Map, want)
		}
		if si.N != full.N() {
			t.Fatalf("shard %d n = %d, want %d", i, si.N, full.N())
		}
		for v := 0; v < full.N(); v++ {
			if si.Fat(v) != full.Fat(v) {
				t.Fatalf("shard %d fat bit of %d = %v, full engine says %v", i, v, si.Fat(v), full.Fat(v))
			}
		}
		if !bytes.Equal(si.IDBits, full.AppendIDBits(nil)) {
			t.Fatalf("shard %d identifier block differs from the full engine's (stubs keep identifiers)", i)
		}
		if i == 0 {
			first = append([]byte(nil), si.FatBits...)
		} else if string(first) != string(si.FatBits) {
			t.Fatalf("shard %d fat bitmap differs from shard 0", i)
		}
	}
}

// TestClientPending tracks the pipelining depth across an unanswered frame.
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
