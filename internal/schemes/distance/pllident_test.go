package distance

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// pllEntriesMergePrune is the textbook pruned landmark sweep: a BFS from
// each landmark in rank order, every visit merging the root's and the
// vertex's full entry lists to the exact minimum and only then comparing it
// with the BFS distance. It is the reference pllEntries must reproduce entry
// for entry.
func pllEntriesMergePrune(g *graph.Graph) (entries [][]core.DistEntry, maxDist int32, order []int) {
	n := g.N()
	order = g.VerticesByDegreeDesc()
	entries = make([][]core.DistEntry, n)
	query := func(u, v int) int32 {
		best := int32(1 << 30)
		eu, ev := entries[u], entries[v]
		for i, j := 0, 0; i < len(eu) && j < len(ev); {
			switch {
			case eu[i].ID == ev[j].ID:
				best = min(best, eu[i].D+ev[j].D)
				i++
				j++
			case eu[i].ID < ev[j].ID:
				i++
			default:
				j++
			}
		}
		return best
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int32
	for r, vk := range order {
		queue = append(queue[:0], int32(vk))
		dist[vk] = 0
		for head := 0; head < len(queue); head++ {
			u := int(queue[head])
			du := dist[u]
			if query(vk, u) <= du {
				continue
			}
			entries[u] = append(entries[u], core.DistEntry{ID: int32(r), D: du})
			maxDist = max(maxDist, du)
			for _, wv := range g.Neighbors(u) {
				if dist[wv] < 0 {
					dist[wv] = du + 1
					queue = append(queue, wv)
				}
			}
		}
		for _, u := range queue {
			dist[u] = -1
		}
	}
	return entries, maxDist, order
}

// checkPLLEntries runs pllEntries on g at each worker count and requires the
// merge prune's entry lists, largest distance and landmark order.
func checkPLLEntries(t testing.TB, name string, g *graph.Graph, workers ...int) {
	t.Helper()
	want, wantMax, wantOrder := pllEntriesMergePrune(g)
	for _, w := range workers {
		got, gotMax, gotOrder := pllEntries(g, w)
		if gotMax != wantMax || !slices.Equal(gotOrder, wantOrder) {
			t.Fatalf("%s workers=%d: maxDist %d / order differ from the merge prune's (maxDist %d)", name, w, gotMax, wantMax)
		}
		for v := range want {
			if !slices.Equal(got[v], want[v]) {
				t.Fatalf("%s workers=%d: vertex %d entries %v, merge prune %v", name, w, v, got[v], want[v])
			}
		}
	}
}

// TestPLLEntriesMatchMergePrune pins the round-by-round sweep to the
// landmark-by-landmark merge prune: identical entry lists, largest distance
// and landmark order on every graph and worker count, and — through the
// shared slab pipeline — identical arena bytes. Besides
// random graphs it runs the shapes a round structure could get wrong: many
// equal shortest paths (grid, cycle, complete and complete bipartite graphs,
// where the prune's "≤" ties decide), ≈ 200 rounds (a long path), a single
// round (no edges) and one or two vertices.
func TestPLLEntriesMatchMergePrune(t *testing.T) {
	type named struct {
		name string
		g    *graph.Graph
	}
	var graphs []named
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs = append(graphs, named{name, g})
	}
	for seed := int64(1); seed <= 5; seed++ {
		g, err := gen.ChungLuPowerLaw(400, 2.5, 2, seed)
		add(fmt.Sprintf("chunglu/%d", seed), g, err)
		add(fmt.Sprintf("er/%d", seed), gen.ErdosRenyi(200, 0.03, seed), nil)
		add(fmt.Sprintf("path/%d", seed), gen.Path(20+int(seed)), nil)
		add(fmt.Sprintf("star/%d", seed), gen.Star(20+int(seed)), nil)
		// Far below the connectivity threshold: many components and
		// isolated vertices.
		add(fmt.Sprintf("disconnected/%d", seed), gen.ErdosRenyi(150, 0.005, seed), nil)
		add(fmt.Sprintf("grid/%d", seed), gen.Grid(4+int(seed), 9), nil)
		add(fmt.Sprintf("cycle/%d", seed), gen.Cycle(9+4*int(seed)), nil)
		add(fmt.Sprintf("bipartite/%d", seed), gen.CompleteBipartite(int(seed), 3+2*int(seed)), nil)
		add(fmt.Sprintf("tree/%d", seed), gen.RandomTree(300, seed), nil)
		g, err = gen.BarabasiAlbert(500, 2, seed)
		add(fmt.Sprintf("ba/%d", seed), g, err)
	}
	for k := 4; k <= 11; k++ {
		add(fmt.Sprintf("complete/%d", k), gen.Complete(k), nil)
	}
	for _, n := range []int{1, 2, 200} {
		add(fmt.Sprintf("path%d", n), gen.Path(n), nil)
	}
	add("noedges", graph.Empty(30), nil)

	for _, tc := range graphs {
		checkPLLEntries(t, tc.name, tc.g, 1, 2, 7)
		want, wantMax, _ := pllEntriesMergePrune(tc.g)
		for _, w := range []int{1, 7} {
			arena, err := PLLScheme{}.EncodeArena(tc.g, w, core.LayoutDegree)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			ref, err := core.EncodePLLArena(want, wantMax, arena.Order, 1)
			if err != nil {
				t.Fatalf("%s workers=%d: reference arena: %v", tc.name, w, err)
			}
			if sha256.Sum256(arena.Slab) != sha256.Sum256(ref.Slab) || !slices.Equal(arena.BitLens, ref.BitLens) {
				t.Fatalf("%s workers=%d: slab differs from the merge prune's", tc.name, w)
			}
		}
	}
	if _, maxDist, _ := pllEntries(graph.Empty(30), 2); maxDist != 0 {
		t.Fatalf("no edges: maxDist %d, want 0", maxDist)
	}
}

// FuzzPLLEntries pins the round-by-round sweep to the merge prune on
// arbitrary small graphs: the first byte picks n ≤ 48, each further byte
// pair is an edge (self-loops dropped, repeats merged by the builder), and
// pllEntries at workers 1 and 3 must give the merge prune's entry lists,
// largest distance and landmark order.
//
//	go test -run '^$' -fuzz 'FuzzPLLEntries$' -fuzztime 30s -fuzzminimizetime 2s ./internal/schemes/distance
func FuzzPLLEntries(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add([]byte{9, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 4, 8})
	f.Add([]byte{48})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 49
		b := graph.NewBuilder(n)
		for i := 1; n > 0 && i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkPLLEntries(t, "fuzz", b.Build(), 1, 3)
	})
}

// TestPLLArenaRejectsUnsorted checks the PLL encoder reports a list whose
// ranks do not strictly increase instead of sorting it.
func TestPLLArenaRejectsUnsorted(t *testing.T) {
	for _, list := range [][]core.DistEntry{
		{{ID: 2, D: 1}, {ID: 1, D: 1}},
		{{ID: 1, D: 1}, {ID: 1, D: 2}},
	} {
		if _, err := core.EncodePLLArena([][]core.DistEntry{nil, list, nil}, 2, nil, 1); err == nil {
			t.Errorf("entries %v: encoder accepted ranks that do not increase", list)
		}
	}
}

// entriesDist is the 2-hop-cover answer straight from two entry lists: 0
// for a vertex with itself, else the minimum summed distance over the ranks
// both lists hold, graph.Unreachable when they share none (sums of 2^30 and
// more count as none, as in the engine).
func entriesDist(entries [][]core.DistEntry, u, v int) int {
	if u == v {
		return 0
	}
	best := int64(1 << 30)
	for _, a := range entries[u] {
		for _, b := range entries[v] {
			if a.ID == b.ID {
				best = min(best, int64(a.D)+int64(b.D))
			}
		}
	}
	if best == 1<<30 {
		return graph.Unreachable
	}
	return int(best)
}

// TestDistEngineMatchesEntriesHandBuilt is the differential twin of core's
// kernel edge tests: hand-built entry lists — every count around the
// 64-entry decode block, very unequal and disjoint lists, an entry wider
// than one 57-bit window, a last label ending on the slab's last bit — go
// through the slab pipeline, and DistEngine must answer every pair with the
// minimum summed distance the lists themselves give, in both layouts.
func TestDistEngineMatchesEntriesHandBuilt(t *testing.T) {
	run := func(cnt, first, step int, maxDist int32) []core.DistEntry {
		list := make([]core.DistEntry, cnt)
		for i := range list {
			list[i] = core.DistEntry{ID: int32(first + i*step), D: int32(i*5+first) % (maxDist + 1)}
		}
		return list
	}
	type handBuilt struct {
		name    string
		entries [][]core.DistEntry
		maxDist int32
		vs      []int
	}
	var cases []handBuilt

	blocks := handBuilt{name: "blocks", entries: make([][]core.DistEntry, 1<<11), maxDist: 11}
	for v, cnt := range []int{0, 1, 63, 64, 65, 128, 200, 600} {
		blocks.entries[v] = run(cnt, v%2, 1, 11)
		blocks.entries[8+v] = run(cnt, 3+v, 1+v%3, 11)
		blocks.entries[16+v] = run(min(cnt, 300), 1, 3, 11) // ranks 1 mod 3 ...
		blocks.entries[24+v] = run(min(cnt, 300), 2, 3, 11) // ... never meet ranks 2 mod 3
	}
	for v := 0; v < 32; v++ {
		blocks.vs = append(blocks.vs, v)
	}
	cases = append(cases, blocks)

	// dw = 32 and first ranks past 2^17: a 27-bit gap code, so the distance
	// lies outside the window the code was read from.
	wide := handBuilt{name: "wide", entries: make([][]core.DistEntry, 1<<18), maxDist: math.MaxInt32}
	for v := 0; v < 6; v++ {
		for i := 0; i < 2+v; i++ {
			wide.entries[v] = append(wide.entries[v], core.DistEntry{ID: int32(1<<17 + v%2 + 2*i), D: int32(1000*i + v)})
		}
		wide.vs = append(wide.vs, v)
	}
	cases = append(cases, wide)

	// n = 2^16 and dw = 7: the header is 33 bits, rank 40000 codes in 24, so
	// a one-entry label is exactly one word and every 64 further gap-1
	// entries (11 bits each) add whole words — labels with no padding, whose
	// last entry ends on the slab's last bit when the label is stored last
	// and the labels' bytes fill whole words: 65 531 empty 5-byte labels,
	// 296 bytes of whole-word labels and v7's 420 (3353 bits) leave 5 bytes
	// of a word, which v9's four hubs from rank 0 (74 bits, 10 bytes) fill.
	tail := handBuilt{name: "tail", entries: make([][]core.DistEntry, 1<<16), maxDist: 100}
	for v, cnt := range map[int]int{0: 65, 1: 1, 1<<16 - 2: 1, 1<<16 - 1: 129} {
		tail.entries[v] = run(cnt, 40000, 1, 100)
		tail.vs = append(tail.vs, v)
	}
	tail.entries[7] = run(300, 39900, 1, 100)
	tail.entries[9] = run(4, 0, 1, 100)
	tail.vs = append(tail.vs, 7, 8, 9)
	cases = append(cases, tail)

	for _, tc := range cases {
		n := len(tc.entries)
		reversed := make([]int32, n)
		for r := range reversed {
			reversed[r] = int32(n - 1 - r)
		}
		for layName, order := range map[string][]int32{"id": nil, "reversed": reversed} {
			arena, err := core.EncodePLLArena(tc.entries, tc.maxDist, order, 2)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, layName, err)
			}
			if tc.name == "tail" {
				last := n - 1
				if order != nil {
					last = int(order[n-1])
				}
				if bits := arena.BitLens[last]; bits == 0 || bits%64 != 0 {
					t.Fatalf("tail/%s: last label has %d bits, want whole words", layName, bits)
				}
				var off int64
				walk := bitstr.NewSlabWalk(len(arena.Slab), arena.BitLens, arena.Order)
				for walk.Next() {
					_, off = walk.Label()
				}
				if err := walk.Err(); err != nil {
					t.Fatalf("tail/%s: %v", layName, err)
				}
				if end := off + int64(arena.BitLens[last]); end != int64(len(arena.Slab))*8 {
					t.Fatalf("tail/%s: last label ends at bit %d of a %d-byte slab, want its last bit", layName, end, len(arena.Slab))
				}
			}
			eng, err := core.NewDistEngine(arena)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, layName, err)
			}
			for _, u := range tc.vs {
				for _, v := range tc.vs {
					want := entriesDist(tc.entries, u, v)
					got, err := eng.Dist(u, v)
					if err != nil {
						t.Fatalf("%s/%s: Dist(%d,%d): %v", tc.name, layName, u, v, err)
					}
					if got != want {
						t.Fatalf("%s/%s: Dist(%d,%d) = %d, entry lists %d (%d and %d entries)",
							tc.name, layName, u, v, got, want, len(tc.entries[u]), len(tc.entries[v]))
					}
				}
			}
		}
	}
}
