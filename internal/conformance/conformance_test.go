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
// Every cell of the matrix also encodes at GOMAXPROCS workers and requires the
// slab to be byte-identical to one worker's.
//
// The graphs with n ≤ 5 keep every engine on one side of its size
// boundaries, so generated_test.go runs the same cells on a seeded set of
// larger graphs built to cross them, and asserts that they did:
//   - 64/w identifiers, the longest thin list a header record holds: longer
//     lists are binary-searched in the slab;
//   - core.ProbeBlock, the batch kernel's block: longer spans take several;
//   - pllHeadHubs, the PLL hub ranks a record keeps as a bitmap: higher
//     ranks go to its tail;
//   - dw ≤ 8, the distance width of 32-bit PLL hub records: wider distances
//     take 64-bit records;
//   - adjserve.Client.MaxBatch: longer requests go out in several frames;
//   - 255, the wire's distance sentinel: a longer distance is read back as
//     -1.
//
// A further column, robust_test.go, gives the decoders labels no encoder wrote:
// in the paper's deployment labels arrive from untrusted peers, so a corrupt
// or adversarial label must give an error or a boolean, never a panic.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
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

// checkRemote asks the server or router at addr for pairs on one plane under
// every frame cap of frames (adjserve.Client.MaxBatch, 0 for the default; at
// one pair a frame it asks only the first onePairFrames pairs), then the
// first pair by the single-query call, and holds the answers to the graph:
// HasEdge when dist is nil, else on the distance plane the hop count dist
// gives, as the wire carries it (wireDist).
func checkRemote(t *testing.T, where, addr string, frames []int, g *graph.Graph, pairs [][2]int, dist func(u, v int) int) {
	t.Helper()
	for _, maxBatch := range frames {
		where, pairs := fmt.Sprintf("%s max-batch=%d", where, maxBatch), pairs
		if maxBatch == 1 {
			pairs = pairs[:min(len(pairs), onePairFrames)]
		}
		c, err := adjserve.Dial(addr)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		c.MaxBatch = maxBatch
		if dist != nil {
			want := func(u, v int) int { return wireDist(dist(u, v)) }
			got, err := c.DistMany(pairs, nil)
			holdMany(t, where+" DistMany", pairs, got, err, want)
			holdEach(t, where+" Dist", pairs[:1], c.Dist, want)
		} else {
			got, err := c.AdjacentMany(pairs, nil)
			holdMany(t, where+" AdjacentMany", pairs, got, err, g.HasEdge)
			holdEach(t, where+" Adjacent", pairs[:1], c.Adjacent, g.HasEdge)
		}
		c.Close()
	}
}

// holdEach fails unless ask(u, v) answers want(u, v) for every pair (u, v).
func holdEach[T comparable](t *testing.T, where string, pairs [][2]int, ask func(u, v int) (T, error), want func(u, v int) T) {
	t.Helper()
	for _, p := range pairs {
		if got, err := ask(p[0], p[1]); err != nil || got != want(p[0], p[1]) {
			t.Fatalf("%s: (%d,%d) = %v, %v; want %v", where, p[0], p[1], got, err, want(p[0], p[1]))
		}
	}
}

// holdMany fails unless a batch call succeeded with answer want(u, v) for
// every pair (u, v).
func holdMany[T comparable](t *testing.T, where string, pairs [][2]int, got []T, err error, want func(u, v int) T) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	for i, p := range pairs {
		if w := want(p[0], p[1]); got[i] != w {
			t.Fatalf("%s: (%d,%d) = %v, want %v", where, p[0], p[1], got[i], w)
		}
	}
}

// onePairFrames is how many pairs checkRemote asks one pair a frame.
const onePairFrames = 200

// wireSentinel is the distance byte adjserve's protocol documents for
// "unreachable or beyond the bound": an engine distance of 255 or more is
// sent as it, and a client surfaces it as -1.
const wireSentinel = 255

// wireDist is an engine distance as a client receives it.
func wireDist(d int) int {
	if d >= wireSentinel {
		return graph.Unreachable
	}
	return d
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
	total := uint64(1) << uint(n*(n-1)/2)
	schemes, all := allSchemes(), allPairs(n)
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
			holdEach(t, fmt.Sprintf("mask=%d scheme=%s", mask, s.Name()), all, lab.Adjacent, g.HasEdge)
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

// batchCells are the thin-edge layouts every fat/thin scheme of the batch
// matrix is encoded in.
var batchCells = []core.ThinEdges{core.ThinEdgesOnce, core.ThinEdgesBoth}

// batchSchemes are the fat/thin schemes of the batch matrix, the fixed
// threshold one at threshold tau.
func batchSchemes(tau int) []*core.FatThinScheme {
	return []*core.FatThinScheme{core.NewPowerLawScheme(2.5), core.NewFixedThresholdScheme(tau), core.NewSparseSchemeAuto()}
}

// exhaustiveBatch is the batch row of the conformance matrix: every cell
// (adjacencyCell) on every graph with n vertices, asked all n² ordered pairs.
// Booting a fleet costs about a millisecond, so above n = 4 each graph takes
// its served and routed columns under one scheme × thin-edges combination,
// chosen round-robin by the graph's mask: every graph is still served and
// routed, and n = 4 covers the full cross product.
func exhaustiveBatch(t *testing.T, n int) {
	t.Helper()
	all := allPairs(n)
	total := uint64(1) << uint(n*(n-1)/2)
	for mask := uint64(0); mask < total; mask++ {
		g, err := graphFromMask(n, mask)
		if err != nil {
			t.Fatal(err)
		}
		schemes := batchSchemes(2)
		for si, s := range schemes {
			for ci, thin := range batchCells {
				s.SetThinEdges(thin)
				var frames []int
				if n <= 4 || int(mask%uint64(len(schemes)*len(batchCells))) == len(batchCells)*si+ci {
					frames = []int{0} // adjserve.DefaultMaxBatch
				}
				where := fmt.Sprintf("mask=%d scheme=%s thin-edges=%d", mask, s.Name(), thin)
				adjacencyCell(t, where, g, s, all, frames, nil)
			}
		}
	}
}

// adjacencyCell is one cell of the batch matrix: fat/thin scheme s, its
// thin-edge layout set, on g. It encodes g at one worker and at encodeWorkers
// (the two slabs must be byte-identical, and carry an order: g has at least
// two vertices, and the encoders write identifier order) and holds the answer
// to every pair of pairs to g.HasEdge: the labeling's own decoder
// (Labeling.Adjacent), then the engine's scalar Adjacent and batch
// AdjacentMany, on the unsharded engine and on every shard of a 2- and a
// 3-way range split (checkSplit). With frame caps, the unsharded engine is
// also served and each split routed over its shard servers, and both are
// asked under every cap. m, when not nil, is attached to the unsharded
// engine. It returns the labeling.
func adjacencyCell(t *testing.T, where string, g *graph.Graph, s *core.FatThinScheme, pairs [][2]int, frames []int, m *core.EngineMetrics) *core.Labeling {
	t.Helper()
	lab := encodeTwice(t, where, s, g)
	holdEach(t, where+" decoder", pairs, lab.Adjacent, g.HasEdge)
	slab, order, _ := lab.ArenaLayout()
	if order == nil {
		t.Fatalf("%s: a labeling of %d vertices has no slab order", where, g.N())
	}
	bitLens := lab.BitLens()
	eng, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		t.Fatalf("%s: engine: %v", where, err)
	}
	if m != nil {
		eng.AttachMetrics(m)
	}
	holdEach(t, where+" Adjacent", pairs, eng.Adjacent, g.HasEdge)
	many, err := eng.AdjacentMany(pairs, nil)
	holdMany(t, where+" AdjacentMany", pairs, many, err, g.HasEdge)
	if frames != nil {
		addrs, stop := serveAll(t, adjserve.NewServer(eng, 0))
		checkRemote(t, where+" served", addrs[0], frames, g, pairs, nil)
		stop()
	}
	for _, count := range []int{2, 3} {
		where := fmt.Sprintf("%s split %d", where, count)
		fleet := checkSplit(t, where, g, slab, bitLens, order, count, pairs)
		if frames != nil {
			addrs, stopFleet := serveAll(t, fleet...)
			routed, stopRouter := routeOver(t, where+" routed", addrs)
			checkRemote(t, where+" routed", routed, frames, g, pairs, nil)
			stopRouter()
			stopFleet()
		}
	}
	return lab
}

// encodeWorkers is the worker count every encode of the matrix is repeated
// at and compared with one worker's: GOMAXPROCS, and at least two so that the
// comparison is never of one worker with itself.
func encodeWorkers() int { return max(runtime.GOMAXPROCS(0), 2) }

// encodeTwice encodes g with s at one worker and at encodeWorkers and fails
// unless the two labelings are byte-identical: slab, label lengths and
// layout order. It returns the first.
func encodeTwice(t *testing.T, where string, s *core.FatThinScheme, g *graph.Graph) *core.Labeling {
	t.Helper()
	var labs [2]*core.Labeling
	for i, workers := range []int{1, encodeWorkers()} {
		lab, err := s.EncodeParallel(g, workers)
		if err != nil {
			t.Fatalf("%s: encode at %d workers: %v", where, workers, err)
		}
		labs[i] = lab
	}
	a, ao, _ := labs[0].ArenaLayout() // every Labeling is a slab
	b, bo, _ := labs[1].ArenaLayout()
	if !bytes.Equal(a, b) || !slices.Equal(ao, bo) || !slices.Equal(labs[0].BitLens(), labs[1].BitLens()) {
		t.Fatalf("%s: encode at %d workers is not byte-identical to one worker's", where, encodeWorkers())
	}
	return labs[0]
}

// checkSplit splits one fat/thin slab count ways by vertex range and builds
// every shard's engine. Each must answer as g does, pair by pair and in one
// AdjacentMany call, every pair it holds a label body for, and refuse the
// rest with ErrNotResident. While the shard has answered at most
// 3·ProbeBlock pairs, a batch of those pairs ending on a refused one must
// stop there, the pairs before it answered. Every pair must be answered on at
// least one shard. It returns an unstarted server per shard.
func checkSplit(t *testing.T, where string, g *graph.Graph, slab []byte, bitLens []int, order []int32, count int, pairs [][2]int) []*adjserve.Server {
	t.Helper()
	arenas, err := core.ShardLabelArenas(slab, bitLens, order, count, core.ShardRange)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	answered := make([]bool, len(pairs))
	var fleet []*adjserve.Server
	for i, a := range arenas {
		where := fmt.Sprintf("%s shard %d", where, i)
		sh, err := core.NewQueryEngineFromPermutedArena(a.Slab, a.BitLens, order)
		if err != nil {
			t.Fatalf("%s: engine: %v", where, err)
		}
		if err := sh.SetShard(core.ShardMap{Count: count, Index: i}); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		var held [][2]int
		for j, p := range pairs {
			got, err := sh.Adjacent(p[0], p[1])
			switch {
			case err == nil:
				if got != g.HasEdge(p[0], p[1]) {
					t.Fatalf("%s: Adjacent(%d,%d) = %v, graph says %v", where, p[0], p[1], got, !got)
				}
				held = append(held, p)
				answered[j] = true
			case !errors.Is(err, core.ErrNotResident):
				t.Fatalf("%s: Adjacent(%d,%d): %v", where, p[0], p[1], err)
			case len(held) <= 3*core.ProbeBlock:
				out, err := sh.AdjacentMany(append(held[:len(held):len(held)], p), nil)
				if !errors.Is(err, core.ErrNotResident) || len(out) != len(held) {
					t.Fatalf("%s: batch ending on foreign (%d,%d): %d answers, err %v", where, p[0], p[1], len(out), err)
				}
			}
		}
		many, err := sh.AdjacentMany(held, nil)
		holdMany(t, where+" AdjacentMany", held, many, err, g.HasEdge)
		fleet = append(fleet, adjserve.NewServer(sh, 0))
	}
	for j, ok := range answered {
		if !ok {
			t.Fatalf("%s: no shard answers (%d,%d)", where, pairs[j][0], pairs[j][1])
		}
	}
	return fleet
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

// distRows are the distance labelings of the exhaustive matrix: PLL (f = 0
// here: exact at every distance) and Lemma 7 at f = 1, 2 and 3. Each is served
// over one replica; PLL also routed over two.
var distRows = []struct {
	f              int
	served, routed bool
}{{0, true, true}, {1, false, false}, {2, true, false}, {3, false, false}}

// exhaustiveDistance is the distance row of the conformance matrix: every
// labeling of distRows (distanceCell) on every graph with n vertices, asked
// all n² ordered pairs.
func exhaustiveDistance(t *testing.T, n int) {
	t.Helper()
	all := allPairs(n)
	total := uint64(1) << uint(n*(n-1)/2)
	for mask := uint64(0); mask < total; mask++ {
		g, err := graphFromMask(n, mask)
		if err != nil {
			t.Fatal(err)
		}
		bfs := bfsTable(g)
		for _, row := range distRows {
			var frames []int
			if row.served {
				frames = []int{0} // adjserve.DefaultMaxBatch
			}
			where := fmt.Sprintf("mask=%d f=%d", mask, row.f)
			distanceCell(t, where, g, row.f, all, bfs, frames, row.routed)
		}
	}
}

// bfsTable returns g's BFS distances, -1 for unreachable pairs, as a lookup.
// A distance is held in 16 bits, so g has fewer than 2^15 vertices.
func bfsTable(g *graph.Graph) func(u, v int) int {
	n := g.N()
	d := make([]int16, n*n)
	for u := 0; u < n; u++ {
		for v, x := range g.BFS(u) {
			d[u*n+v] = int16(x)
		}
	}
	return func(u, v int) int { return int(d[u*n+v]) }
}

// distanceCell is one cell of the distance matrix: PLL (f = 0) or Lemma 7 at
// bound f, on g. It encodes g straight into a slab arena at one worker and at
// encodeWorkers (the two must be byte-identical, and carry an order: g has at
// least two vertices) and builds a core.DistEngine over it. The engine must
// answer every pair of pairs as BFS (bfs) does, by Dist pair by pair and in
// one DistMany call: PLL exactly (disconnected pairs -1), Lemma 7 exactly up
// to f and -1 beyond.
// Lemma 7's own decoder, distance.Decoder, must answer the same from the
// arena's labels viewed in place. With frame caps the engine is also served
// from a distance-only adjserve.Server, and with routed asked through a
// Router over two such replicas, under every cap. It returns the arena.
func distanceCell(t *testing.T, where string, g *graph.Graph, f int, pairs [][2]int, bfs func(u, v int) int, frames []int, routed bool) *core.DistArena {
	t.Helper()
	want := func(u, v int) int {
		if d := bfs(u, v); f == 0 || d <= f {
			return d
		}
		return distance.Beyond
	}
	var arenas [2]*core.DistArena
	for i, workers := range []int{1, encodeWorkers()} {
		var err error
		if f == 0 {
			arenas[i], err = distance.PLLScheme{}.EncodeArena(g, workers, core.LayoutDegree)
		} else {
			arenas[i], err = distance.Scheme{Alpha: 2.5, F: f}.EncodeArena(g, workers, core.LayoutDegree)
		}
		if err != nil {
			t.Fatalf("%s: encode at %d workers: %v", where, workers, err)
		}
	}
	arena, other := arenas[0], arenas[1]
	if !bytes.Equal(arena.Slab, other.Slab) || !slices.Equal(arena.BitLens, other.BitLens) ||
		!slices.Equal(arena.Order, other.Order) || arena.Params != other.Params {
		t.Fatalf("%s: encode at %d workers is not byte-identical to one worker's", where, encodeWorkers())
	}
	if arena.Order == nil {
		t.Fatalf("%s: a labeling of %d vertices has no slab order", where, g.N())
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		t.Fatalf("%s: engine: %v", where, err)
	}
	holdEach(t, where+" Dist", pairs, eng.Dist, want)
	if decode := lemma7Decode(t, where, arena); decode != nil {
		holdEach(t, where+" Lemma 7's decoder", pairs, decode, want)
	}
	many, err := eng.DistMany(pairs, nil)
	holdMany(t, where+" DistMany", pairs, many, err, want)
	if frames == nil {
		return arena
	}
	var replicas []*adjserve.Server
	for range 2 {
		srv := adjserve.NewServer(nil, 0)
		srv.SetDistEngine(eng)
		replicas = append(replicas, srv)
	}
	addrs, stopFleet := serveAll(t, replicas...)
	checkRemote(t, where+" served", addrs[0], frames, g, pairs, want)
	if routed {
		addr, stopRouter := routeOver(t, where+" routed over 2 replicas", addrs)
		checkRemote(t, where+" routed over 2 replicas", addr, frames, g, pairs, want)
		stopRouter()
	}
	stopFleet()
	return arena
}

// lemma7Decode returns Lemma 7's own decoder over a bdist arena's labels,
// viewed in place; nil for any other arena.
func lemma7Decode(t *testing.T, where string, arena *core.DistArena) func(u, v int) (int, error) {
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
	return func(u, v int) (int, error) { return dec.Dist(labels[u], labels[v]) }
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
