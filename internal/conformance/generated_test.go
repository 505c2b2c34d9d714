package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The generated column runs the batch and distance cells of the matrix on a
// fixed, seeded set of larger graphs. The exhaustive rows stop at n = 5,
// which keeps every engine on one side of each of its size boundaries; each
// graph here is chosen to cross some of them, and the column asserts that it
// did (genGraph).

// bipartiteTau is the fixed-threshold scheme's threshold in the generated
// column, and K(bipartiteTau−1, bipartiteTau) its bipartite graph: one side
// has degree τ, fat, the other τ−1, thin. At n = 25 identifiers are 5 bits
// wide, so a thin list of τ−1 = 12 = 64/5 identifiers is the longest a header
// record holds.
const bipartiteTau = 13

// pllHeadHubs mirrors core's constant of the same name: a PLL hub of that rank
// or above sits in its record's tail, not its head bitmap.
const pllHeadHubs = 256

// genFrames are the frame caps the generated column's remote cells ask under:
// one pair a frame, a cap that cuts ProbeBlock spans mid-block, and
// adjserve.DefaultMaxBatch.
var genFrames = []int{1, 61, 0}

// genGraph is one graph of the generated column and the boundaries it must
// cross:
//   - "record-held": a thin list of at most 64/w identifiers, held in its
//     header record and matched in one word;
//   - "slab-held": a longer thin list, binary-searched in the slab
//     (thinProbe, adjacentBlock's pass 3); under ThinEdgesOnce every entry
//     of a list is an edge whose probe searches it;
//   - "fat-fat": a pair answered from a fat vertex's bitmap;
//   - "pll-tail": n > pllHeadHubs, so PLL hub ranks reach past the head
//     bitmap into the records' tails (tailMin);
//   - "hub32" and "hub64": PLL hub records of 32-bit words (distances of at
//     most 8 bits and w + dw ≤ 32) or of 64-bit ones;
//   - "beyond-wire": a distance of wireSentinel or more, served as the
//     sentinel.
type genGraph struct {
	name    string
	g       *graph.Graph
	crosses []string
}

// generatedGraphs returns the column's graphs:
//   - Chung–Lu, α = 2.5, w_min = 2, n = 2^11: w = 11, so lists past 5 ids
//     are slab-held, and hubs of degree τ and more are fat; its PLL arena
//     has dw = 3 and hub ranks past pllHeadHubs;
//   - a path of 600: every thin list record-held, and a PLL arena of dw = 10
//     with distances past the wire sentinel;
//   - Barabási–Albert, n = 1000, m = 3: no isolated vertex, and every
//     once-layout thin list fits its header record;
//   - K(bipartiteTau−1, bipartiteTau).
func generatedGraphs(t *testing.T) []genGraph {
	t.Helper()
	cl, err := gen.ChungLuPowerLaw(1<<11, 2.5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := gen.BarabasiAlbert(1000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []genGraph{
		{"chunglu", cl, []string{"record-held", "slab-held", "fat-fat", "pll-tail", "hub32"}},
		{"path", gen.Path(600), []string{"record-held", "pll-tail", "hub64", "beyond-wire"}},
		{"ba", ba, []string{"record-held", "fat-fat", "pll-tail", "hub32"}},
		{"bipartite", gen.CompleteBipartite(bipartiteTau-1, bipartiteTau), []string{"record-held", "fat-fat", "hub32"}},
	}
}

// genPairs returns the pairs the column asks of g, shuffled so that every
// ProbeBlock span and every frame mixes their kinds: every edge in both
// directions, 2000 pairs drawn at random, every self pair, and every pair of
// vertices at the edge of a shard's range [lo, hi) — lo−1, lo, hi−1 and hi —
// in the 2- and the 3-way split.
func genPairs(g *graph.Graph) [][2]int {
	n := g.N()
	var pairs [][2]int
	g.Edges(func(u, v int) { pairs = append(pairs, [2]int{u, v}, [2]int{v, u}) })
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	for v := range n {
		pairs = append(pairs, [2]int{v, v})
	}
	atEdge := make([]bool, n)
	for _, count := range []int{2, 3} {
		for i := range count {
			lo, hi := core.ShardMap{Count: count, Index: i}.Range(n)
			for _, v := range []int{lo - 1, lo, hi - 1, hi} {
				if v >= 0 && v < n {
					atEdge[v] = true
				}
			}
		}
	}
	var edge []int
	for v, ok := range atEdge {
		if ok {
			edge = append(edge, v)
		}
	}
	for _, u := range edge {
		for _, v := range edge {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// TestGeneratedColumn runs every generated graph through every cell of the
// matrix: three fat/thin schemes in both thin-edge layouts (adjacencyCell),
// and PLL and Lemma 7 at f = 2 (distanceCell), each local, served and routed
// under every frame cap of genFrames. Through an EngineMetrics attached to
// every unsharded adjacency engine and through the PLL arenas' parameters it
// then asserts that the graph crossed each boundary it is listed for.
func TestGeneratedColumn(t *testing.T) {
	for _, gg := range generatedGraphs(t) {
		t.Run(gg.name, func(t *testing.T) {
			t.Parallel()
			g := gg.g
			pairs := genPairs(g)
			if len(pairs) <= genFrames[1] || len(pairs) <= core.ProbeBlock {
				t.Fatalf("%d pairs fit one frame or one probe block", len(pairs))
			}
			var m core.EngineMetrics
			longest := 0 // identifiers in the longest once-layout thin list
			for _, s := range batchSchemes(bipartiteTau) {
				for _, thin := range batchCells {
					s.SetThinEdges(thin)
					where := fmt.Sprintf("%s scheme=%s thin-edges=%d", gg.name, s.Name(), thin)
					lab := adjacencyCell(t, where, g, s, pairs, genFrames, &m)
					pinThinCounters(t, where, lab, pairs)
					if thin == core.ThinEdgesOnce {
						longest = max(longest, longestThin(t, lab))
					}
				}
			}
			crossed := map[string]bool{
				"record-held": m.ThinInline.Load() > 0,
				"slab-held":   longest > 64/bitstr.WidthFor(uint64(g.N())),
				"fat-fat":     m.FatBranch.Load() > 0,
			}
			bfs := bfsTable(g)
			for _, p := range pairs {
				crossed["beyond-wire"] = crossed["beyond-wire"] || bfs(p[0], p[1]) >= wireSentinel
			}
			for _, f := range []int{0, 2} {
				where := fmt.Sprintf("%s f=%d", gg.name, f)
				arena := distanceCell(t, where, g, f, pairs, bfs, genFrames, true)
				if f == 0 {
					// core.buildPLL's record width rule; a PLL id is at
					// least one bit wide.
					dw, w := arena.Params.DW, max(bitstr.WidthFor(uint64(arena.N())), 1)
					crossed["pll-tail"] = arena.N() > pllHeadHubs
					crossed["hub32"] = dw <= 8 && w+dw <= 32
					crossed["hub64"] = !crossed["hub32"]
				}
			}
			for _, b := range gg.crosses {
				if !crossed[b] {
					t.Errorf("did not cross %s", b)
				}
			}
		})
	}
}

// pinThinCounters asks a fresh engine over lab every pair in one AdjacentMany
// call and holds its branch counters to what the label lengths predict: a
// thin probe for every pair that is neither a self pair nor fat–fat, and a
// slab-held search — ThinBranch − ThinInline — for those whose answering
// label, the larger identifier's, lists more identifiers than its header
// record holds (64/w). An empty list is answered from the record.
func pinThinCounters(t *testing.T, where string, lab *core.Labeling, pairs [][2]int) {
	t.Helper()
	eng, err := core.NewQueryEngine(lab)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	var m core.EngineMetrics
	eng.AttachMetrics(&m)
	if _, err := eng.AdjacentMany(pairs, nil); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	n := lab.N()
	w := bitstr.WidthFor(uint64(n))
	fat, id, cnt := make([]bool, n), make([]uint64, n), make([]int, n)
	for v := range n {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		fat[v], id[v], cnt[v] = l.MustPeekUint(0, 1) == 1, l.MustPeekUint(1, w), (l.Len()-1-w)/w
	}
	var thin, slab int64
	for _, p := range pairs {
		u, v := p[0], p[1]
		if id[u] == id[v] || fat[u] && fat[v] {
			continue
		}
		if id[v] > id[u] {
			u = v
		}
		thin++
		if cnt[u] > 64/w {
			slab++
		}
	}
	if got := m.ThinBranch.Load(); got != thin {
		t.Errorf("%s: %d thin probes counted, %d predicted", where, got, thin)
	}
	if got := m.ThinBranch.Load() - m.ThinInline.Load(); got != slab {
		t.Errorf("%s: %d slab-held searches counted (thin − inline), %d predicted from label lengths", where, got, slab)
	}
}

// longestThin returns how many identifiers the longest thin label of lab
// lists: a fat/thin label is a fat bit, a w-bit identifier and, when thin,
// w bits per identifier.
func longestThin(t *testing.T, lab *core.Labeling) int {
	t.Helper()
	w := bitstr.WidthFor(uint64(lab.N()))
	longest := 0
	for v := range lab.N() {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		if fat, err := l.Bit(0); err == nil && !fat {
			longest = max(longest, (l.Len()-1-w)/w)
		}
	}
	return longest
}
