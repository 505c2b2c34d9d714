package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestLayoutString: the one layout's name, and an unknown value's.
func TestLayoutString(t *testing.T) {
	for lay, want := range map[Layout]string{LayoutDegree: "degree", Layout(7): "Layout(7)"} {
		if got := lay.String(); got != want {
			t.Errorf("Layout(%d).String() = %q, want %q", uint8(lay), got, want)
		}
	}
}

// relayout lays lab's labels out again in the physical order given, as the
// slab pipeline places them: byte-aligned, back to back in rank order.
func relayout(t testing.TB, lab *Labeling, order []int32) *Labeling {
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

// TestLayoutEquivalence pins the one slab order. Across the fat/thin schemes,
// both ThinEdges choices, graphs and worker counts, a labeling of n ≥ 2
// vertices carries an order, the label at slab rank r has identifier r, and
// SetLayout(LayoutDegree) at GOMAXPROCS workers changes no byte; one of fewer
// vertices has no order. The compressed scheme writes vertex order; its row
// lays the same labels out in the fat/thin plan's order and holds the
// decoder's reads of both slabs to each other and to the graph.
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
	schemes := map[string]func() *FatThinScheme{
		"powerlaw":   func() *FatThinScheme { return NewPowerLawScheme(2.5) },
		"sparse":     NewSparseSchemeAuto,
		"compressed": nil,
	}
	for sname, mk := range schemes {
		for gname, g := range graphs {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", sname, gname, workers), func(t *testing.T) {
					if mk == nil {
						compressedRelayout(t, g, workers)
						return
					}
					for _, thin := range []ThinEdges{ThinEdgesOnce, ThinEdgesBoth} {
						s := mk()
						s.SetThinEdges(thin)
						lab, err := s.EncodeParallel(g, workers)
						if err != nil {
							t.Fatal(err)
						}
						requireIdentifierOrder(t, lab)
						s.SetLayout(LayoutDegree)
						again, err := s.EncodeParallel(g, 0)
						if err != nil {
							t.Fatal(err)
						}
						slab, order, _ := lab.ArenaLayout()
						slab2, order2, _ := again.ArenaLayout()
						if !bytes.Equal(slab, slab2) || !slices.Equal(order, order2) {
							t.Fatalf("thin=%d: SetLayout(LayoutDegree) moved a byte", thin)
						}
					}
				})
			}
		}
	}
}

// requireIdentifierOrder: a fat/thin labeling of n ≥ 2 vertices has an
// order, under which the label at slab rank r has identifier r; one of fewer
// vertices has none.
func requireIdentifierOrder(t *testing.T, lab *Labeling) {
	t.Helper()
	_, order, _ := lab.ArenaLayout()
	if (order != nil) != (lab.N() > 1) {
		t.Fatalf("n = %d: order %v", lab.N(), order)
	}
	w := bitstr.WidthFor(uint64(lab.N()))
	for r, v := range order {
		l, err := lab.Label(int(v))
		if err != nil {
			t.Fatal(err)
		}
		if id := l.MustPeekUint(1, w); id != uint64(r) {
			t.Fatalf("rank %d holds label %d of identifier %d", r, v, id)
		}
	}
}

// compressedRelayout lays the compressed scheme's vertex-ordered labels out
// in the powerlaw plan's order and holds the decoder's reads of both slabs to
// each other and to the graph.
func compressedRelayout(t *testing.T, g *graph.Graph, workers int) {
	s := NewCompressedScheme(NewPowerLawScheme(2.5))
	tau, err := s.Threshold(g)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := encodeCompressedSlab(s.Name(), g, tau, workers)
	if err != nil {
		t.Fatal(err)
	}
	if _, order, _ := lab.ArenaLayout(); order != nil {
		t.Fatalf("compressed slab has an order: %v", order)
	}
	ft, err := NewPowerLawScheme(2.5).EncodeParallel(g, workers)
	if err != nil {
		t.Fatal(err)
	}
	_, order, _ := ft.ArenaLayout()
	perm := relayout(t, lab, order)
	rng := rand.New(rand.NewSource(1))
	for _, p := range equivalencePairs(g, rng, 500) {
		a, err1 := lab.Adjacent(p[0], p[1])
		b, err2 := perm.Adjacent(p[0], p[1])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b || a != g.HasEdge(p[0], p[1]) {
			t.Fatalf("(%d,%d): vertex order %v, permuted %v, graph %v", p[0], p[1], a, b, g.HasEdge(p[0], p[1]))
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
