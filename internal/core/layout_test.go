package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestLayoutString: the names pin keys and experiment tables print.
func TestLayoutString(t *testing.T) {
	for lay, want := range map[Layout]string{LayoutID: "id", LayoutDegree: "degree", Layout(7): "Layout(7)"} {
		if got := lay.String(); got != want {
			t.Errorf("Layout(%d).String() = %q, want %q", uint8(lay), got, want)
		}
	}
}

// relayout lays lab's labels out again in the physical order given, as the
// slab pipeline places them: byte-aligned, back to back in rank order.
func relayout(t *testing.T, lab *Labeling, order []int32) *Labeling {
	t.Helper()
	a := slabArena{bitLens: lab.bitLens, order: order}
	physOffs, err := a.layout()
	if err != nil {
		t.Fatal(err)
	}
	a.slab = make([]byte, bitstr.SlabSize(int(physOffs[len(physOffs)-1]>>3)))
	for v, off := range a.offs {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		copy(a.slab[off>>3:], l.Bytes())
	}
	return &Labeling{scheme: lab.scheme, decoder: lab.decoder, slabArena: a}
}

// TestLayoutEquivalence: the degree-ordered layout is a physical
// rearrangement only. Across schemes, graphs, and worker counts, every
// per-vertex label must be byte-equal to the id-ordered encoding's. The
// conformance matrix holds both layouts' fat/thin answers to the graph; the
// compressed scheme, which writes id order only and has no engine, has no
// row there, so its row here lays the same labels out in the degree order
// the fat/thin plan computes and holds the decoder's reads of the permuted
// slab to its id-ordered answers and to the graph.
func TestLayoutEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":  gen.Path(24),
		"empty": graph.Empty(3),
		"n1":    graph.Empty(1),
		"n0":    graph.Empty(0),
	}
	if g, err := gen.ChungLuPowerLaw(600, 2.5, 2, 17); err == nil {
		graphs["chunglu"] = g
	} else {
		t.Fatal(err)
	}
	if g, err := gen.BarabasiAlbert(400, 3, 23); err == nil {
		graphs["ba"] = g
	} else {
		t.Fatal(err)
	}
	fatThin := func(mk func() *FatThinScheme) func(*testing.T, *graph.Graph, int, Layout) *Labeling {
		return func(t *testing.T, g *graph.Graph, workers int, lay Layout) *Labeling {
			s := mk()
			s.SetLayout(lay)
			lab, err := s.EncodeParallel(g, workers)
			if err != nil {
				t.Fatal(err)
			}
			return lab
		}
	}
	powerlaw := fatThin(func() *FatThinScheme { return NewPowerLawScheme(2.5) })
	schemes := map[string]func(*testing.T, *graph.Graph, int, Layout) *Labeling{
		"powerlaw": powerlaw,
		"sparse":   fatThin(NewSparseSchemeAuto),
		"compressed": func(t *testing.T, g *graph.Graph, workers int, lay Layout) *Labeling {
			s := NewCompressedScheme(NewPowerLawScheme(2.5))
			tau, err := s.Threshold(g)
			if err != nil {
				t.Fatal(err)
			}
			lab, err := encodeCompressedSlab(s.Name(), g, tau, workers)
			if err != nil {
				t.Fatal(err)
			}
			if lay == LayoutID {
				return lab
			}
			_, order, _ := powerlaw(t, g, workers, lay).ArenaLayout()
			return relayout(t, lab, order)
		},
	}
	for sname, encode := range schemes {
		for gname, g := range graphs {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", sname, gname, workers), func(t *testing.T) {
					idLab, degLab := encode(t, g, workers, LayoutID), encode(t, g, workers, LayoutDegree)
					if _, order, _ := degLab.ArenaLayout(); (order != nil) != (g.N() > 1) {
						t.Fatalf("degree layout of %d vertices: order %v", g.N(), order)
					}
					for v := 0; v < g.N(); v++ {
						a, err1 := idLab.Label(v)
						b, err2 := degLab.Label(v)
						if err1 != nil || err2 != nil {
							t.Fatal(err1, err2)
						}
						if !a.Equal(b) {
							t.Fatalf("label %d differs between layouts", v)
						}
					}
					if sname != "compressed" {
						return
					}
					rng := rand.New(rand.NewSource(1))
					for _, p := range equivalencePairs(g, rng, 500) {
						a, err1 := idLab.Adjacent(p[0], p[1])
						b, err2 := degLab.Adjacent(p[0], p[1])
						if err1 != nil || err2 != nil {
							t.Fatal(err1, err2)
						}
						if a != b {
							t.Fatalf("decoder answers differ at (%d,%d): id=%v degree=%v", p[0], p[1], a, b)
						}
						if a != g.HasEdge(p[0], p[1]) {
							t.Fatalf("wrong answer at (%d,%d)", p[0], p[1])
						}
					}
				})
			}
		}
	}
}

// equivalencePairs mixes every edge (up to a cap) with random pairs so both
// positive and negative answers are exercised.
func equivalencePairs(g *graph.Graph, rng *rand.Rand, extra int) [][2]int {
	var pairs [][2]int
	g.Edges(func(u, v int) {
		if len(pairs) < 2000 {
			pairs = append(pairs, [2]int{u, v})
		}
	})
	for i := 0; i < extra && g.N() > 0; i++ {
		pairs = append(pairs, [2]int{rng.Intn(g.N()), rng.Intn(g.N())})
	}
	return pairs
}
