// Package conformance runs the strongest correctness check in the
// repository: EVERY adjacency labeling scheme is exercised on EVERY graph
// of a small vertex count (exhaustive enumeration over all 2^(n(n-1)/2)
// edge subsets), and all schemes must agree with the graph — and therefore
// with each other — on every vertex pair. Labeling schemes are promises
// about entire graph families; this verifies the promise family-wide rather
// than on sampled instances. The distance plane gets the same treatment:
// the PLL and Lemma 7 slab engines against BFS on every graph, Lemma 7's
// also against its own decoder.
//
// The matrix has three columns. Local: labels decoded in process (every
// scheme, the engines' batch surfaces, every shard of a split). Served: the
// same engines behind an adjserve.Server, asked over a socket. Routed: a
// Router over a 2- and a 3-shard partition (adjacency) or a 2-replica fleet
// (distance). Every column answers to the graph itself — HasEdge or BFS — so
// the serving tier is pinned to the paper's decoder semantics here rather
// than by per-feature equivalence tests. Fat/thin labelings enter every column
// in both thin-edge layouts: each edge stored once (the default) and the
// paper's both-ends lists, which every store written before the once layout
// holds — the both rows are the guarantee that those stay servable and
// routable.
//
// A fourth column, robust_test.go, gives the decoders labels no encoder wrote:
// in the paper's deployment labels arrive from untrusted peers, so a corrupt
// or adversarial label must give an error or a boolean, never a panic.
package conformance

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"repro/internal/adjserve"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schemes/baseline"
	"repro/internal/schemes/distance"
	"repro/internal/schemes/forest"
	"repro/internal/schemes/onequery"
)

// bothEnds sets a fat/thin scheme to the paper's both-ends lists.
func bothEnds(s *core.FatThinScheme) *core.FatThinScheme {
	s.SetThinEdges(core.ThinEdgesBoth)
	return s
}

// allSchemes returns every adjacency scheme under test.
func allSchemes() []core.Scheme {
	return []core.Scheme{
		core.NewSparseScheme(2),
		core.NewSparseSchemeAuto(),
		core.NewPowerLawScheme(2.5),
		core.NewFixedThresholdScheme(2),
		bothEnds(core.NewSparseScheme(2)),
		bothEnds(core.NewSparseSchemeAuto()),
		bothEnds(core.NewPowerLawScheme(2.5)),
		bothEnds(core.NewFixedThresholdScheme(2)),
		core.NewCompressedScheme(core.NewFixedThresholdScheme(2)),
		baseline.NeighborList{},
		baseline.AdjMatrix{},
		forest.Scheme{},
		oneQueryScheme{},
	}
}

// oneQueryScheme adapts the 1-query scheme to core.Scheme.
type oneQueryScheme struct{}

func (oneQueryScheme) Name() string { return "onequery" }
func (oneQueryScheme) Encode(g *graph.Graph) (*core.Labeling, error) {
	enc, err := (onequery.Scheme{Seed: 1}).Encode(g)
	if err != nil {
		return nil, err
	}
	return enc.Labeling, nil
}

// serveAll starts every server on its own loopback listener and returns the
// addresses; stop closes them all. The served and routed columns boot a fleet
// per graph, so they stop it themselves instead of waiting for test cleanup.
func serveAll(t *testing.T, srvs ...*adjserve.Server) (addrs []string, stop func()) {
	t.Helper()
	for _, srv := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, func() {
		for _, srv := range srvs {
			srv.Close()
		}
	}
}

// routeOver fronts addrs with a router and returns its address.
func routeOver(t *testing.T, where string, addrs []string) (addr string, stop func()) {
	t.Helper()
	r, err := adjserve.NewRouter(addrs, 0)
	if err != nil {
		t.Fatalf("%s: router: %v", where, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	return ln.Addr().String(), func() { r.Close() }
}

// checkRemote asks the server or router at addr for every pair in one batch
// on one plane and holds the answers to the graph: HasEdge when dist is nil,
// else on the distance plane the hop count dist gives.
func checkRemote(t *testing.T, where, addr string, g *graph.Graph, pairs [][2]int, dist func(u, v int) int) {
	t.Helper()
	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	defer c.Close()
	if dist != nil {
		got, err := c.DistMany(pairs, nil)
		if err != nil {
			t.Fatalf("%s: DistMany: %v", where, err)
		}
		for i, p := range pairs {
			if want := dist(p[0], p[1]); got[i] != want {
				t.Fatalf("%s: dist(%d,%d) = %d, BFS says %d", where, p[0], p[1], got[i], want)
			}
		}
		return
	}
	got, err := c.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatalf("%s: AdjacentMany: %v", where, err)
	}
	for i, p := range pairs {
		if got[i] != g.HasEdge(p[0], p[1]) {
			t.Fatalf("%s: adjacency(%d,%d) = %v, graph says %v", where, p[0], p[1], got[i], !got[i])
		}
	}
}

// allPairs is every ordered pair over n vertices, self-pairs included.
func allPairs(n int) [][2]int {
	var all [][2]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			all = append(all, [2]int{u, v})
		}
	}
	return all
}

// graphFromMask decodes an edge-subset bitmask into the graph on n vertices.
func graphFromMask(n int, mask uint64) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mask&(1<<uint(bit)) != 0 {
				if err := b.AddEdge(u, v); err != nil {
					return nil, err
				}
			}
			bit++
		}
	}
	return b.Build(), nil
}

// TestExhaustiveAllGraphsN4 checks every scheme on all 64 graphs with 4
// vertices, every vertex pair.
func TestExhaustiveAllGraphsN4(t *testing.T) {
	exhaustive(t, 4)
}

// TestExhaustiveAllGraphsN5 checks every scheme on all 1024 graphs with 5
// vertices.
func TestExhaustiveAllGraphsN5(t *testing.T) {
	exhaustive(t, 5)
}

func exhaustive(t *testing.T, n int) {
	t.Helper()
	pairs := n * (n - 1) / 2
	total := uint64(1) << uint(pairs)
	schemes := allSchemes()
	for mask := uint64(0); mask < total; mask++ {
		g, err := graphFromMask(n, mask)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schemes {
			lab, err := s.Encode(g)
			if err != nil {
				t.Fatalf("mask=%d scheme=%s: encode: %v", mask, s.Name(), err)
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					got, err := lab.Adjacent(u, v)
					if err != nil {
						t.Fatalf("mask=%d scheme=%s (%d,%d): %v", mask, s.Name(), u, v, err)
					}
					if got != g.HasEdge(u, v) {
						t.Fatalf("mask=%d scheme=%s: adjacency(%d,%d) = %v, graph says %v",
							mask, s.Name(), u, v, got, g.HasEdge(u, v))
					}
				}
			}
		}
	}
}

// TestExhaustiveBatchN4 checks the engine's batch surface on all 64 graphs
// with 4 vertices.
func TestExhaustiveBatchN4(t *testing.T) {
	exhaustiveBatch(t, 4)
}

// TestExhaustiveBatchN5 checks the engine's batch surface on all 1024 graphs
// with 5 vertices.
func TestExhaustiveBatchN5(t *testing.T) {
	exhaustiveBatch(t, 5)
}

// exhaustiveBatch is the batch row of the conformance matrix: on every graph
// with n vertices, for every fat/thin scheme, both thin-edge layouts and both
// physical layouts, one AdjacentMany call over all n² ordered pairs must answer as the graph does —
// on the unsharded engine, and on every shard of a 2- and a 3-way split for
// the pairs that shard holds a label body for (every pair must be answerable
// on at least one shard of each split, and a shard must refuse the rest with
// ErrNotResident, not answer them). The served column asks the unsharded
// engine through an adjserve.Server, the routed column asks each split
// through a Router over its shard servers; both must answer all n² pairs.
// Booting a fleet costs about a millisecond, so above n = 4 each graph takes
// its served and routed columns under one scheme × thin-edges × layout
// combination, chosen round-robin by the graph's mask: every graph is still
// served and routed, and n = 4 covers the full cross product.
func exhaustiveBatch(t *testing.T, n int) {
	t.Helper()
	all := allPairs(n)
	check := func(where string, g *graph.Graph, eng *core.QueryEngine, pairs [][2]int) {
		t.Helper()
		got, err := eng.AdjacentMany(pairs, nil)
		if err != nil {
			t.Fatalf("%s: AdjacentMany: %v", where, err)
		}
		for i, p := range pairs {
			if got[i] != g.HasEdge(p[0], p[1]) {
				t.Fatalf("%s: AdjacentMany(%d,%d) = %v, graph says %v", where, p[0], p[1], got[i], !got[i])
			}
		}
	}
	type cell struct {
		thin core.ThinEdges
		lay  core.Layout
	}
	cells := []cell{
		{core.ThinEdgesOnce, core.LayoutID}, {core.ThinEdgesOnce, core.LayoutDegree},
		{core.ThinEdgesBoth, core.LayoutID}, {core.ThinEdgesBoth, core.LayoutDegree},
	}
	type partition struct {
		count int
		fn    core.ShardFn
	}
	partitions := []partition{{2, core.ShardRange}, {3, core.ShardRange}}
	total := uint64(1) << uint(n*(n-1)/2)
	for mask := uint64(0); mask < total; mask++ {
		g, err := graphFromMask(n, mask)
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range []*core.FatThinScheme{core.NewPowerLawScheme(2.5), core.NewFixedThresholdScheme(2), core.NewSparseSchemeAuto()} {
			for ci, c := range cells {
				where := fmt.Sprintf("mask=%d scheme=%s thin-edges=%d layout=%v", mask, s.Name(), c.thin, c.lay)
				remote := n <= 4 || int(mask%12) == len(cells)*si+ci
				s.SetThinEdges(c.thin)
				s.SetLayout(c.lay)
				lab, err := s.Encode(g)
				if err != nil {
					t.Fatalf("%s: encode: %v", where, err)
				}
				slab, order, ok := lab.ArenaLayout()
				if !ok {
					t.Fatalf("%s: labeling is not arena-backed", where)
				}
				bitLens := make([]int, n)
				for v := range bitLens {
					l, err := lab.Label(v)
					if err != nil {
						t.Fatal(err)
					}
					bitLens[v] = l.Len()
				}
				eng, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
				if err != nil {
					t.Fatalf("%s: engine: %v", where, err)
				}
				check(where, g, eng, all)
				if remote {
					addrs, stop := serveAll(t, adjserve.NewServer(eng, 0))
					checkRemote(t, where+" served", addrs[0], g, all, nil)
					stop()
				}
				for _, part := range partitions {
					count, fn := part.count, part.fn
					arenas, err := core.ShardLabelArenas(slab, bitLens, order, count, fn)
					if err != nil {
						t.Fatalf("%s: split %d fn=%v: %v", where, count, fn, err)
					}
					answered := make(map[[2]int]bool, len(all))
					var fleet []*adjserve.Server
					for i, a := range arenas {
						where := fmt.Sprintf("%s shard %d/%d fn=%v", where, i, count, fn)
						sh, err := core.NewQueryEngineFromPermutedArena(a.Slab, a.BitLens, order)
						if err != nil {
							t.Fatalf("%s: engine: %v", where, err)
						}
						if err := sh.SetShard(core.ShardMap{Count: count, Index: i, Fn: fn}); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						var held [][2]int
						for _, p := range all {
							switch _, err := sh.Adjacent(p[0], p[1]); {
							case err == nil:
								held = append(held, p)
								answered[p] = true
							case !errors.Is(err, core.ErrNotResident):
								t.Fatalf("%s: Adjacent(%d,%d): %v", where, p[0], p[1], err)
							default:
								// One batch ending on the foreign pair: refused, prefix kept.
								out, err := sh.AdjacentMany(append(held[:len(held):len(held)], p), nil)
								if !errors.Is(err, core.ErrNotResident) || len(out) != len(held) {
									t.Fatalf("%s: batch ending on foreign (%d,%d): %d answers, err %v", where, p[0], p[1], len(out), err)
								}
							}
						}
						check(where, g, sh, held)
						fleet = append(fleet, adjserve.NewServer(sh, 0))
					}
					if len(answered) != len(all) {
						t.Fatalf("%s: %d-way fn=%v split answers %d of %d pairs", where, count, fn, len(answered), len(all))
					}
					if remote {
						where := fmt.Sprintf("%s routed over %d shards fn=%v", where, count, fn)
						addrs, stopFleet := serveAll(t, fleet...)
						routed, stopRouter := routeOver(t, where, addrs)
						checkRemote(t, where, routed, g, all, nil)
						stopRouter()
						stopFleet()
					}
				}
			}
		}
	}
}

// TestExhaustiveDistanceN4 checks the distance plane on all 64 graphs with
// 4 vertices.
func TestExhaustiveDistanceN4(t *testing.T) {
	exhaustiveDistance(t, 4)
}

// TestExhaustiveDistanceN5 checks the distance plane on all 1024 graphs
// with 5 vertices.
func TestExhaustiveDistanceN5(t *testing.T) {
	exhaustiveDistance(t, 5)
}

// distRows are the distance labelings of the matrix: PLL (f = 0 here: exact
// at every distance) and Lemma 7 at f = 1, 2 and 3. Each is served over one
// replica; PLL also routed over two.
var distRows = []struct {
	f              int
	served, routed bool
}{{0, true, true}, {1, false, false}, {2, true, false}, {3, false, false}}

// exhaustiveDistance is the distance row of the conformance matrix: on every
// graph with n vertices, each labeling of distRows encoded straight into a
// slab arena and served by core.DistEngine — in both physical layouts —
// must answer every ordered pair as BFS does: PLL exactly (disconnected
// pairs -1), Lemma 7 exactly up to f and -1 beyond. Lemma 7's own decoder,
// distance.Decoder, must answer the same from the arena's labels viewed in
// place. The served column asks the same engine through a distance-only
// adjserve.Server, the routed column through a Router over two such
// replicas.
func exhaustiveDistance(t *testing.T, n int) {
	t.Helper()
	all := allPairs(n)
	total := uint64(1) << uint(n*(n-1)/2)
	for mask := uint64(0); mask < total; mask++ {
		g, err := graphFromMask(n, mask)
		if err != nil {
			t.Fatal(err)
		}
		bfs := make([][]int, n)
		for u := range bfs {
			bfs[u] = g.BFS(u)
		}
		for _, row := range distRows {
			want := func(u, v int) int {
				if d := bfs[u][v]; row.f == 0 || d <= row.f {
					return d
				}
				return distance.Beyond
			}
			for _, lay := range []core.Layout{core.LayoutID, core.LayoutDegree} {
				where := fmt.Sprintf("mask=%d f=%d layout=%v", mask, row.f, lay)
				var arena *core.DistArena
				if row.f == 0 {
					arena, err = distance.PLLScheme{}.EncodeArena(g, 1, lay)
				} else {
					arena, err = distance.Scheme{Alpha: 2.5, F: row.f}.EncodeArena(g, 1, lay)
				}
				if err != nil {
					t.Fatalf("%s: encode: %v", where, err)
				}
				eng, err := core.NewDistEngine(arena)
				if err != nil {
					t.Fatalf("%s: engine: %v", where, err)
				}
				decode := lemma7Decode(t, where, arena)
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						got, err := eng.Dist(u, v)
						if err != nil {
							t.Fatalf("%s (%d,%d): %v", where, u, v, err)
						}
						if got != want(u, v) {
							t.Fatalf("%s: dist(%d,%d) = %d, BFS says %d", where, u, v, got, want(u, v))
						}
						if decode != nil {
							if d := decode(u, v); d != got {
								t.Fatalf("%s: dist(%d,%d) = %d, Lemma 7's decoder %d", where, u, v, got, d)
							}
						}
					}
				}
				if !row.served {
					continue
				}
				var replicas []*adjserve.Server
				for range 2 {
					srv := adjserve.NewServer(nil, 0)
					srv.SetDistEngine(eng)
					replicas = append(replicas, srv)
				}
				addrs, stopFleet := serveAll(t, replicas...)
				checkRemote(t, where+" served", addrs[0], g, all, want)
				if row.routed {
					routed, stopRouter := routeOver(t, where+" routed over 2 replicas", addrs)
					checkRemote(t, where+" routed over 2 replicas", routed, g, all, want)
					stopRouter()
				}
				stopFleet()
			}
		}
	}
}

// lemma7Decode returns Lemma 7's own decoder over a bdist arena's labels,
// viewed in place; nil for any other arena.
func lemma7Decode(t *testing.T, where string, arena *core.DistArena) func(u, v int) int {
	t.Helper()
	if arena.Params.Kind != core.DistBounded {
		return nil
	}
	dec, err := distance.NewDecoder(arena.N(), arena.Params)
	if err != nil {
		t.Fatalf("%s: decoder: %v", where, err)
	}
	labels := make([]bitstr.String, arena.N())
	walk := bitstr.NewSlabWalk(len(arena.Slab), arena.BitLens, arena.Order)
	for walk.Next() {
		v, off := walk.Label()
		labels[v] = bitstr.SlabLabel(arena.Slab, off, arena.BitLens[v])
	}
	if err := walk.Tiled(); err != nil {
		t.Fatalf("%s: slab walk: %v", where, err)
	}
	return func(u, v int) int {
		d, err := dec.Dist(labels[u], labels[v])
		if err != nil {
			t.Fatalf("%s: decoder dist(%d,%d): %v", where, u, v, err)
		}
		return d
	}
}

// TestExhaustiveForestsN6 checks the tree scheme on every labeled forest
// with 6 vertices (enumerated as the acyclic members of all 2^15 graphs).
func TestExhaustiveForestsN6(t *testing.T) {
	n := 6
	pairs := n * (n - 1) / 2
	checked := 0
	for mask := uint64(0); mask < 1<<uint(pairs); mask++ {
		g, err := graphFromMask(n, mask)
		if err != nil {
			t.Fatal(err)
		}
		// Forests only: acyclic ⇔ m = n - #components.
		_, comps := g.ConnectedComponents()
		if g.M() != n-comps {
			continue
		}
		lab, err := (forest.Scheme{}).Encode(g)
		if err != nil {
			t.Fatalf("mask=%d: %v", mask, err)
		}
		if err := lab.Verify(g); err != nil {
			t.Fatalf("mask=%d: %v", mask, err)
		}
		checked++
	}
	// Labeled forests on 6 vertices: 2932 (OEIS A001858).
	if checked != 2932 {
		t.Errorf("enumerated %d forests on 6 vertices, want 2932", checked)
	}
}
