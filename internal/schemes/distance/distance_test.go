package distance

import (
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// bounded is a Lemma 7 labeling as the tests query it: the served engine,
// and Lemma 7's own decoder over the arena's labels viewed in place.
type bounded struct {
	eng    *core.DistEngine
	dec    *Decoder
	labels []bitstr.String // by vertex
}

// encodeBounded labels g with s through the slab pipeline.
func encodeBounded(t testing.TB, g *graph.Graph, s Scheme, workers int) bounded {
	t.Helper()
	arena, err := s.EncodeArena(g, workers, core.LayoutDegree)
	if err != nil {
		t.Fatalf("%s: EncodeArena: %v", s.Name(), err)
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		t.Fatalf("%s: NewDistEngine: %v", s.Name(), err)
	}
	dec, err := NewDecoder(arena.N(), arena.Params)
	if err != nil {
		t.Fatalf("%s: NewDecoder: %v", s.Name(), err)
	}
	labels := make([]bitstr.String, arena.N())
	walk := bitstr.NewSlabWalk(len(arena.Slab), arena.BitLens, arena.Order)
	for walk.Next() {
		v, off := walk.Label()
		labels[v] = bitstr.SlabLabel(arena.Slab, off, arena.BitLens[v])
	}
	if err := walk.Tiled(); err != nil {
		t.Fatalf("%s: slab walk: %v", s.Name(), err)
	}
	return bounded{eng: eng, dec: dec, labels: labels}
}

// dist answers (u, v) from the engine, failing the test unless the decoder
// gives the same answer from the two labels.
func (b bounded) dist(t testing.TB, u, v int) int {
	t.Helper()
	got, err := b.eng.Dist(u, v)
	if err != nil {
		t.Fatalf("engine Dist(%d,%d): %v", u, v, err)
	}
	want, err := b.dec.Dist(b.labels[u], b.labels[v])
	if err != nil {
		t.Fatalf("decoder Dist(%d,%d): %v", u, v, err)
	}
	if got != want {
		t.Fatalf("Dist(%d,%d): engine %d, decoder %d", u, v, got, want)
	}
	return got
}

// checkBounded verifies the Lemma 7 contract on every pair: queries answer
// the exact distance when it is <= f, and Beyond otherwise.
func checkBounded(t *testing.T, g *graph.Graph, lab bounded, f int) {
	t.Helper()
	n := g.N()
	for u := 0; u < n; u++ {
		truth := g.BFS(u)
		for v := 0; v < n; v++ {
			got := lab.dist(t, u, v)
			want := truth[v]
			if want == graph.Unreachable || want > f {
				if got != Beyond {
					t.Fatalf("Dist(%d,%d) = %d, want Beyond (true %d, f=%d)", u, v, got, want, f)
				}
				continue
			}
			if got != want {
				t.Fatalf("Dist(%d,%d) = %d, want %d (f=%d)", u, v, got, want, f)
			}
		}
	}
}

func TestDistanceSchemeSmallGraphs(t *testing.T) {
	cl, err := gen.ChungLuPowerLaw(200, 2.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*graph.Graph{
		"path":   gen.Path(20),
		"cycle":  gen.Cycle(15),
		"star":   gen.Star(25),
		"grid":   gen.Grid(5, 5),
		"er":     gen.ErdosRenyi(80, 0.06, 2),
		"cl":     cl,
		"isol":   graph.Empty(10),
		"single": graph.Empty(1),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			for _, f := range []int{1, 2, 3, 5} {
				checkBounded(t, g, encodeBounded(t, g, Scheme{Alpha: 2.5, F: f}, 0), f)
			}
		})
	}
}

func TestDistanceSchemeValidation(t *testing.T) {
	if _, err := (Scheme{Alpha: 2.5, F: 0}).EncodeArena(gen.Path(5), 0, core.LayoutDegree); err == nil {
		t.Error("F=0 accepted")
	}
	if _, err := (Scheme{Alpha: 1.0, F: 2}).EncodeArena(gen.Path(5), 0, core.LayoutDegree); err == nil {
		t.Error("alpha=1 accepted")
	}
	if _, err := NewDecoder(5, core.DistParams{Kind: core.DistPLL, DW: 2}); err == nil {
		t.Error("decoder over pll params accepted")
	}
}

func TestDistanceF1IsAdjacency(t *testing.T) {
	// With f=1 the scheme answers adjacency: 1 for edges, 0 for self,
	// Beyond for everything else.
	g := gen.ErdosRenyi(60, 0.1, 4)
	lab := encodeBounded(t, g, Scheme{Alpha: 2.5, F: 1}, 0)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			got := lab.dist(t, u, v)
			switch {
			case u == v:
				if got != 0 {
					t.Fatalf("self distance %d", got)
				}
			case g.HasEdge(u, v):
				if got != 1 {
					t.Fatalf("edge (%d,%d) dist %d", u, v, got)
				}
			default:
				if got != Beyond && got != 2 && got != 1 {
					t.Fatalf("(%d,%d) dist %d", u, v, got)
				}
				if got != Beyond {
					t.Fatalf("non-adjacent (%d,%d) within f=1: %d", u, v, got)
				}
			}
		}
	}
}

func TestDistanceLabelShrinkWithF(t *testing.T) {
	// Larger f means fewer fat vertices but wider thin tables; at fixed
	// small f the dominant term is the fat table, so f=2 labels should be
	// well below the exact-vector baseline.
	g, err := gen.ChungLuPowerLaw(1000, 2.5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := (Scheme{Alpha: 2.5, F: 2}).EncodeArena(g, 0, core.LayoutDegree)
	if err != nil {
		t.Fatal(err)
	}
	maxBounded := core.SizeStatsOf(arena.BitLens).Max
	exact, err := (ExactScheme{}).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	_, maxExact, _ := exact.Stats()
	if maxBounded >= maxExact {
		t.Errorf("bounded labels (%d bits) not below exact labels (%d bits)", maxBounded, maxExact)
	}
}

func TestExactSchemeCorrect(t *testing.T) {
	cases := []*graph.Graph{
		gen.Path(15),
		gen.Grid(4, 4),
		gen.ErdosRenyi(50, 0.08, 6), // possibly disconnected
	}
	for _, g := range cases {
		lab, err := (ExactScheme{}).Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			truth := g.BFS(u)
			for v := 0; v < g.N(); v++ {
				got, err := lab.Dist(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if got != truth[v] {
					t.Fatalf("exact Dist(%d,%d) = %d, want %d", u, v, got, truth[v])
				}
			}
		}
	}
}

func TestDistanceThresholdMonotone(t *testing.T) {
	s2 := Scheme{Alpha: 2.5, F: 2}
	s5 := Scheme{Alpha: 2.5, F: 5}
	t2, err := s2.Threshold(10000)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := s5.Threshold(10000)
	if err != nil {
		t.Fatal(err)
	}
	if t5 > t2 {
		t.Errorf("threshold grew with f: f=2→%d, f=5→%d", t2, t5)
	}
}

func TestQuickDistanceBoundedContract(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(30, 0.1, seed)
		lab := encodeBounded(t, g, Scheme{Alpha: 2.5, F: 3}, 0)
		for u := 0; u < g.N(); u++ {
			truth := g.BFS(u)
			for v := 0; v < g.N(); v++ {
				got := lab.dist(t, u, v)
				want := truth[v]
				if want == graph.Unreachable || want > 3 {
					if got != Beyond {
						return false
					}
				} else if got != want {
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
