package adjserve

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// startShardFleet serves each sharded engine and returns the addresses (by
// shard index) plus the servers.
func startShardFleet(t testing.TB, engines []*core.QueryEngine) ([]string, []*Server) {
	t.Helper()
	addrs := make([]string, len(engines))
	srvs := make([]*Server, len(engines))
	for i, e := range engines {
		addrs[i], srvs[i], _ = startServer(t, e, 0)
	}
	return addrs, srvs
}

// startRouter fronts addrs with a router on a loopback listener.
func startRouter(t testing.TB, addrs []string, maxBatch int) (string, *Router) {
	t.Helper()
	r, err := NewRouter(addrs, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Close() })
	return ln.Addr().String(), r
}

// TestRouterRoutingInvariant pins down the routing rule over every pair of a
// small graph: a pair that is neither a self pair nor fat–fat goes to the
// shard holding its larger-identifier endpoint resident — the one label the
// engines' read rule searches — and the routed shard answers what the full
// engine and the graph say. Both thin-edge layouts: a both-ends store, as
// every store written before the once layout is, routes under the same rule.
func TestRouterRoutingInvariant(t *testing.T) {
	for _, thin := range []core.ThinEdges{core.ThinEdgesOnce, core.ThinEdgesBoth} {
		g, full, engines := shardEnginesOf(t, 150, 3, 7, thin)
		addrs, _ := startShardFleet(t, engines)
		r, err := NewRouter(addrs, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		ids, k := engineIDs(full), int32(full.FatCount())
		for u := 0; u < full.N(); u++ {
			for v := 0; v < full.N(); v++ {
				s := r.route(u, v)
				if u != v && !(ids[u] < k && ids[v] < k) {
					larger := u
					if ids[v] > ids[u] {
						larger = v
					}
					if !engines[s].Resident(larger) {
						t.Fatalf("thin=%d: route(%d,%d) = shard %d, where larger-identifier endpoint %d is absent", thin, u, v, s, larger)
					}
				}
				got, err := engines[s].Adjacent(u, v)
				if err != nil {
					t.Fatalf("thin=%d: route(%d,%d) = shard %d, which answered: %v", thin, u, v, s, err)
				}
				want, err := full.Adjacent(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || got != g.HasEdge(u, v) {
					t.Fatalf("thin=%d: (%d,%d) on routed shard %d = %v, full engine %v, graph %v",
						thin, u, v, s, got, want, g.HasEdge(u, v))
				}
			}
		}
	}
}

// engineIDs is vertex → identifier of e, decoded from its permutation block.
func engineIDs(e *core.QueryEngine) []int32 {
	order, _, err := core.DecodePermutation(e.AppendPermutation(nil), e.N())
	if err != nil {
		panic(err) // a built engine's identifiers are a permutation
	}
	ids := make([]int32, len(order))
	for id, v := range order {
		ids[v] = int32(id)
	}
	return ids
}

// thinPairsOwnedBy collects pairs whose endpoints are both thin and owned by
// shard s — pairs the routing rule must send to s and no other shard.
func thinPairsOwnedBy(e *core.QueryEngine, count, s, want int) [][2]int {
	ids, k := engineIDs(e), int32(e.FatCount())
	var own []int
	for v, hi := (core.ShardMap{Count: count, Index: s}).Range(e.N()); v < hi; v++ {
		if ids[v] >= k {
			own = append(own, v)
		}
	}
	rng := rand.New(rand.NewSource(int64(s)))
	pairs := make([][2]int, 0, want)
	for len(pairs) < want {
		pairs = append(pairs, [2]int{own[rng.Intn(len(own))], own[rng.Intn(len(own))]})
	}
	return pairs
}

// TestRouterShardKill: killing one shard mid-stream poisons only the requests
// routed to it — each gets a clean error frame (surfacing as RemoteError, the
// connection-survives error type) — while the same downstream connection
// keeps answering requests for the remaining shards.
func TestRouterShardKill(t *testing.T) {
	full, engines := shardEngines(t, 400, 3, 7)
	addrs, srvs := startShardFleet(t, engines)
	addr, _ := startRouter(t, addrs, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const victim = 2
	victimPairs := thinPairsOwnedBy(full, 3, victim, 64)
	livePairs := thinPairsOwnedBy(full, 3, 0, 64)
	if _, err := c.AdjacentMany(victimPairs, nil); err != nil {
		t.Fatalf("victim shard up, batch failed: %v", err)
	}
	srvs[victim].Close()
	// Requests needing the dead shard: error frame, not a dead connection.
	var rerr *RemoteError
	if _, err := c.AdjacentMany(victimPairs, nil); !errors.As(err, &rerr) {
		t.Fatalf("batch for dead shard: err = %v, want a RemoteError error frame", err)
	}
	// Same connection, live shards: still answering, still correct.
	got, err := c.AdjacentMany(livePairs, nil)
	if err != nil {
		t.Fatalf("live-shard batch after kill: %v", err)
	}
	for i, p := range livePairs {
		want, err := full.Adjacent(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("after kill: pair (%d,%d) = %v, engine says %v", p[0], p[1], got[i], want)
		}
	}
	// A mixed batch is poisoned as a unit (one request, one error frame), and
	// the connection still survives it.
	mixed := append(append([][2]int{}, livePairs[:8]...), victimPairs[:8]...)
	if _, err := c.AdjacentMany(mixed, nil); !errors.As(err, &rerr) {
		t.Fatalf("mixed batch: err = %v, want RemoteError", err)
	}
	if _, err := c.AdjacentMany(livePairs[:8], nil); err != nil {
		t.Fatalf("live batch after poisoned mixed batch: %v", err)
	}
}

// TestRouterHandshakeValidation: a fleet that is not exactly one coherent
// partition is rejected at construction — overlapping ownership (two servers
// claiming one shard), an incomplete fleet, mixed labelings and a fleet too
// large for the trace plane's hop byte all fail rather than mis-route or
// mis-report later.
func TestRouterHandshakeValidation(t *testing.T) {
	_, engines := shardEngines(t, 400, 3, 7)
	addrs, _ := startShardFleet(t, engines)
	if _, err := NewRouter(nil, 0); err == nil {
		t.Fatal("empty fleet accepted")
	}
	// Shard indexes share the trace plane's hop byte with the peer and self
	// labels; a fleet that would collide with them is refused before any dial.
	if _, err := NewRouter(make([]string, int(obs.HopPeer)), 0); err == nil || !strings.Contains(err.Error(), "hop labels") {
		t.Fatalf("fleet of %d upstreams: err = %v, want a refusal naming the hop labels", obs.HopPeer, err)
	}
	if _, err := NewRouter([]string{addrs[0], addrs[1], addrs[1]}, 0); err == nil {
		t.Fatal("overlapping ownership accepted (shard 1 listed twice)")
	}
	if _, err := NewRouter(addrs[:2], 0); err == nil {
		t.Fatal("incomplete fleet accepted (2 servers of a 3-shard partition)")
	}
	// Shard 0 of a different labeling of the same size: its fat count or
	// identifiers differ, and the mix must be caught.
	_, others := shardEngines(t, 400, 3, 8)
	otherShard, _, _ := startServer(t, others[0], 0)
	if _, err := NewRouter([]string{otherShard, addrs[1], addrs[2]}, 0); err == nil || !strings.Contains(err.Error(), "mixed labelings") {
		t.Fatalf("shard of another labeling: err = %v, want a refusal naming mixed labelings", err)
	}
	// A whole different labeling behind one address: n mismatch.
	other := testEngine(t, 200, 9)
	otherAddr, _, _ := startServer(t, other, 0)
	if _, err := NewRouter([]string{otherAddr, addrs[1], addrs[2]}, 0); err == nil {
		t.Fatal("mixed vertex counts accepted")
	}
}

// TestRouterFrontsPlainServer: a single unsharded server behind a router
// answers identically to direct access — the trivial 1-shard fleet — and the
// router re-exports the unsharded shard-info, so routers compose.
func TestRouterFrontsPlainServer(t *testing.T) {
	eng := testEngine(t, 300, 5)
	srvAddr, _, _ := startServer(t, eng, 0)
	addr, _ := startRouter(t, []string{srvAddr}, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Info()
	if err != nil || n != eng.N() {
		t.Fatalf("Info = %d, %v; want %d", n, err, eng.N())
	}
	si, err := c.ShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if want := (core.ShardMap{Count: 1, Index: 0, Fn: core.ShardRange}); si.Map != want {
		t.Fatalf("router shard-info map %+v, want %+v", si.Map, want)
	}
	pairs := randomPairs(eng.N(), 2000, 3)
	got, err := c.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, err := eng.Adjacent(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("pair (%d,%d) = %v, engine says %v", p[0], p[1], got[i], want)
		}
	}
}

// TestRouterConcurrent hammers one router from concurrent goroutines sharing
// one client (pipelined) plus goroutines with their own connections, under
// the race detector in CI.
func TestRouterConcurrent(t *testing.T) {
	full, engines := shardEngines(t, 400, 3, 7)
	addrs, _ := startShardFleet(t, engines)
	addr, _ := startRouter(t, addrs, 0)
	shared, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		c := shared
		if g%2 == 0 {
			if c, err = Dial(addr); err != nil {
				t.Fatal(err)
			}
			defer c.Close()
		}
		wg.Add(1)
		go func(g int, c *Client) {
			defer wg.Done()
			pairs := randomPairs(full.N(), 600, int64(g))
			for iter := 0; iter < 5; iter++ {
				got, err := c.AdjacentMany(pairs, nil)
				if err != nil {
					errc <- err
					return
				}
				for i, p := range pairs {
					want, _ := full.Adjacent(p[0], p[1])
					if got[i] != want {
						errc <- errors.New("answer mismatch under concurrency")
						return
					}
				}
			}
		}(g, c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestRouterZeroAlloc asserts the pooled steady state of the whole in-process
// chain — downstream client encode, router routing + fan-out + scatter, and
// three shard servers: zero heap allocations per batch.
func TestRouterZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	full, engines := shardEngines(t, 400, 3, 7)
	addrs, _ := startShardFleet(t, engines)
	addr, _ := startRouter(t, addrs, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pairs := randomPairs(full.N(), 512, 7)
	out := make([]bool, 0, len(pairs))
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
		t.Fatalf("routed AdjacentMany allocates %.1f times per batch, want 0", allocs)
	}
}

// TestRouterMetrics: per-upstream counters move and the downstream side
// accounts frames/queries — the observability satellite's contract.
func TestRouterMetrics(t *testing.T) {
	full, engines := shardEngines(t, 400, 3, 7)
	addrs, _ := startShardFleet(t, engines)
	addr, r := startRouter(t, addrs, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pairs := randomPairs(full.N(), 4096, 3)
	if _, err := c.AdjacentMany(pairs, nil); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if got := m.Queries.Load(); got != int64(len(pairs)) {
		t.Fatalf("router queries = %d, want %d", got, len(pairs))
	}
	var pairsRouted int64
	for s := range m.Upstreams {
		um := &m.Upstreams[s]
		if um.Batches.Load() == 0 {
			t.Fatalf("shard %d saw no sub-batches over a 4096-pair batch", s)
		}
		if um.LatencyNs.Count() == 0 {
			t.Fatalf("shard %d latency histogram empty", s)
		}
		pairsRouted += um.Pairs.Load()
	}
	if pairsRouted != int64(len(pairs)) {
		t.Fatalf("shards saw %d pairs total, router answered %d", pairsRouted, len(pairs))
	}
}
