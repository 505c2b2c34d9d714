package distance

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// encodePLL labels g with PLL through the slab pipeline and returns the
// served engine and the arena.
func encodePLL(t testing.TB, g *graph.Graph, workers int) (*core.DistEngine, *core.DistArena) {
	t.Helper()
	arena, err := (PLLScheme{}).EncodeArena(g, workers, core.LayoutDegree)
	if err != nil {
		t.Fatalf("EncodeArena: %v", err)
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	return eng, arena
}

// checkPLLExact checks every ordered pair against BFS.
func checkPLLExact(t *testing.T, g *graph.Graph, eng *core.DistEngine) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		truth := g.BFS(u)
		for v := 0; v < g.N(); v++ {
			got, err := eng.Dist(u, v)
			if err != nil {
				t.Fatalf("Dist(%d,%d): %v", u, v, err)
			}
			if got != truth[v] {
				t.Fatalf("Dist(%d,%d) = %d, want %d", u, v, got, truth[v])
			}
		}
	}
}

func TestPLLExactSmallGraphs(t *testing.T) {
	cl, err := gen.ChungLuPowerLaw(150, 2.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := gen.BarabasiAlbert(120, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*graph.Graph{
		"path":   gen.Path(25),
		"cycle":  gen.Cycle(16),
		"star":   gen.Star(30),
		"grid":   gen.Grid(6, 6),
		"er":     gen.ErdosRenyi(80, 0.06, 2), // possibly disconnected
		"cl":     cl,
		"ba":     ba,
		"isol":   graph.Empty(8),
		"single": graph.Empty(1),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			eng, _ := encodePLL(t, g, 0)
			checkPLLExact(t, g, eng)
		})
	}
}

func TestPLLPruningEffective(t *testing.T) {
	// On a small-world power-law graph the hub-first ordering must keep
	// labels tiny: far below n entries per vertex.
	g, err := gen.ChungLuPowerLaw(3000, 2.5, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, arena := encodePLL(t, g, 0)
	stats := core.SizeStatsOf(arena.BitLens)
	exact, err := (ExactScheme{}).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	_, exactMax, _ := exact.Stats()
	if stats.Max >= exactMax/4 {
		t.Errorf("PLL max %d not well below exact vectors %d", stats.Max, exactMax)
	}
	if stats.Mean <= 0 {
		t.Errorf("mean = %v", stats.Mean)
	}
}

// TestPLLEngineRejectsOutOfRange: a query naming a vertex the labeling does
// not hold is an error, not an answer.
func TestPLLEngineRejectsOutOfRange(t *testing.T) {
	eng, _ := encodePLL(t, gen.Path(10), 0)
	for _, p := range [][2]int{{0, 99}, {99, 0}, {-1, 3}} {
		if _, err := eng.Dist(p[0], p[1]); !errors.Is(err, core.ErrVertexRange) {
			t.Errorf("Dist(%d,%d): err = %v, want ErrVertexRange", p[0], p[1], err)
		}
	}
}

func TestQuickPLLExact(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(35, 0.1, seed)
		eng, _ := encodePLL(t, g, 0)
		for u := 0; u < g.N(); u++ {
			truth := g.BFS(u)
			for v := 0; v < g.N(); v++ {
				got, err := eng.Dist(u, v)
				if err != nil || got != truth[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

var pllEntriesSink [][]core.DistEntry

// BenchmarkPLLEntries is the label sweep alone at n = 2^14 (Chung–Lu,
// α = 2.5, w_min = 2, seed 1) on one and two workers, B/op included:
//
//	go test -run '^$' -bench 'BenchmarkPLLEntries$' -count 5 ./internal/schemes/distance
func BenchmarkPLLEntries(b *testing.B) {
	g, err := gen.ChungLuPowerLawParallel(1<<14, 2.5, 2, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pllEntriesSink, _, _ = pllEntries(g, workers)
			}
		})
	}
}
