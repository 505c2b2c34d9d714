package baseline

import (
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func allCases(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"empty":  graph.Empty(0),
		"single": graph.Empty(1),
		"edge":   gen.Path(2),
		"path":   gen.Path(12),
		"star":   gen.Star(20),
		"K9":     gen.Complete(9),
		"er":     gen.ErdosRenyi(90, 0.1, 1),
		"grid":   gen.Grid(4, 7),
	}
}

func TestAdjMatrixCorrectness(t *testing.T) {
	for name, g := range allCases(t) {
		lab, err := AdjMatrix{}.Encode(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := lab.Verify(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestNeighborListCorrectness: the labels decode correctly, and the query
// engine built over them — a labeling assembled label by label, packed into a
// slab by core.NewQueryEngineFromLabels — answers every pair as the shared
// fat/thin decoder does.
func TestNeighborListCorrectness(t *testing.T) {
	for name, g := range allCases(t) {
		lab, err := NeighborList{}.Encode(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := lab.Verify(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		eng, err := core.NewQueryEngine(lab)
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				want, werr := lab.Adjacent(u, v)
				got, gerr := eng.Adjacent(u, v)
				if werr != nil || gerr != nil || got != want {
					t.Fatalf("%s: (%d,%d): decoder %v (%v), engine %v (%v)", name, u, v, want, werr, got, gerr)
				}
			}
		}
	}
}

func TestAdjMatrixSizes(t *testing.T) {
	n := 256
	g := gen.Complete(n)
	lab, err := AdjMatrix{}.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	w := bitstr.WidthFor(uint64(n))
	st := lab.Stats()
	if st.Max != w+n-1 {
		t.Errorf("max label = %d, want %d", st.Max, w+n-1)
	}
	if st.Min != w {
		t.Errorf("min label = %d, want %d (vertex 0 stores no bits)", st.Min, w)
	}
	// Mean ≈ w + (n-1)/2 — the "n/2" of Moon's bound.
	wantMean := float64(w) + float64(n-1)/2
	if st.Mean < wantMean-1 || st.Mean > wantMean+1 {
		t.Errorf("mean label = %.1f, want ≈ %.1f", st.Mean, wantMean)
	}
}

func TestAdjMatrixIndependentOfEdges(t *testing.T) {
	// Label sizes of the matrix scheme depend on n only — the scheme the
	// fat/thin approach improves on for sparse inputs.
	a, err := AdjMatrix{}.Encode(graph.Empty(100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := AdjMatrix{}.Encode(gen.Complete(100))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats().Max != b.Stats().Max || a.Stats().Total != b.Stats().Total {
		t.Error("adjmatrix label sizes vary with edges")
	}
}

func TestNeighborListDecoderShared(t *testing.T) {
	// NeighborList labels decode with the standard fat/thin decoder.
	g := gen.ErdosRenyi(50, 0.15, 2)
	lab, err := NeighborList{}.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	dec := core.NewFatThinDecoder(g.N())
	lu, err := lab.Label(3)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := lab.Label(7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Adjacent(lu, lv)
	if err != nil {
		t.Fatal(err)
	}
	if got != g.HasEdge(3, 7) {
		t.Error("shared decoder disagrees")
	}
}

func TestQuickBaselinesAgree(t *testing.T) {
	// Both baselines must agree with each other (and the graph) everywhere.
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(30, 0.25, seed)
		la, err := AdjMatrix{}.Encode(g)
		if err != nil {
			return false
		}
		lb, err := NeighborList{}.Encode(g)
		if err != nil {
			return false
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				x, err := la.Adjacent(u, v)
				if err != nil {
					return false
				}
				y, err := lb.Adjacent(u, v)
				if err != nil {
					return false
				}
				if x != y || x != g.HasEdge(u, v) {
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
