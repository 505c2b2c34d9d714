// Package conformance runs the strongest correctness check in the
// repository: EVERY adjacency labeling scheme is exercised on EVERY graph
// of a small vertex count (exhaustive enumeration over all 2^(n(n-1)/2)
// edge subsets), and all schemes must agree with the graph — and therefore
// with each other — on every vertex pair. Labeling schemes are promises
// about entire graph families; this verifies the promise family-wide rather
// than on sampled instances. The distance plane gets the same treatment:
// the PLL slab engine against BFS and the legacy decoder on every graph.
package conformance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schemes/baseline"
	"repro/internal/schemes/distance"
	"repro/internal/schemes/forest"
	"repro/internal/schemes/onequery"
)

// allSchemes returns every adjacency scheme under test.
func allSchemes() []core.Scheme {
	return []core.Scheme{
		core.NewSparseScheme(2),
		core.NewSparseSchemeAuto(),
		core.NewPowerLawScheme(2.5),
		core.NewFixedThresholdScheme(2),
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

// TestExhaustiveDistanceN4 checks the PLL distance plane on all 64 graphs
// with 4 vertices.
func TestExhaustiveDistanceN4(t *testing.T) {
	exhaustiveDistance(t, 4)
}

// TestExhaustiveDistanceN5 checks the PLL distance plane on all 1024 graphs
// with 5 vertices.
func TestExhaustiveDistanceN5(t *testing.T) {
	exhaustiveDistance(t, 5)
}

// exhaustiveDistance is the distance row of the conformance matrix: on every
// graph with n vertices, PLL labels encoded straight into a slab arena and
// served by core.DistEngine — in both physical layouts — must answer every
// ordered pair exactly as BFS does (disconnected pairs -1) and exactly as
// the legacy PLLDecoder does over its own labels.
func exhaustiveDistance(t *testing.T, n int) {
	t.Helper()
	total := uint64(1) << uint(n*(n-1)/2)
	for mask := uint64(0); mask < total; mask++ {
		g, err := graphFromMask(n, mask)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := distance.PLLScheme{}.Encode(g)
		if err != nil {
			t.Fatalf("mask=%d: legacy encode: %v", mask, err)
		}
		for _, lay := range []core.Layout{core.LayoutID, core.LayoutDegree} {
			arena, err := distance.PLLScheme{}.EncodeArena(g, 1, lay)
			if err != nil {
				t.Fatalf("mask=%d layout=%v: encode: %v", mask, lay, err)
			}
			eng, err := core.NewDistEngine(arena)
			if err != nil {
				t.Fatalf("mask=%d layout=%v: engine: %v", mask, lay, err)
			}
			for u := 0; u < n; u++ {
				bfs := g.BFS(u)
				for v := 0; v < n; v++ {
					got, err := eng.Dist(u, v)
					if err != nil {
						t.Fatalf("mask=%d layout=%v (%d,%d): %v", mask, lay, u, v, err)
					}
					old, err := legacy.Dist(u, v)
					if err != nil {
						t.Fatalf("mask=%d legacy (%d,%d): %v", mask, u, v, err)
					}
					if got != bfs[v] || got != old {
						t.Fatalf("mask=%d layout=%v: dist(%d,%d) = %d, BFS says %d, legacy decoder %d",
							mask, lay, u, v, got, bfs[v], old)
					}
				}
			}
		}
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
