package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildPath returns the path graph 0-1-2-...-(n-1).
func buildPath(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// buildRandom returns a G(n, p) graph with a fixed seed.
func buildRandom(t testing.TB, n int, p float64, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := Empty(0)
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Errorf("empty graph: n=%d m=%d max=%d", g.N(), g.M(), g.MaxDegree())
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 3); !errors.Is(err, ErrVertexRange) {
		t.Errorf("out of range err = %v", err)
	}
	if err := b.AddEdge(-1, 0); !errors.Is(err, ErrVertexRange) {
		t.Errorf("negative err = %v", err)
	}
	if err := b.AddEdge(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop err = %v", err)
	}
}

func TestBuildDeduplicates(t *testing.T) {
	b := NewBuilder(2)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.M() != 1 {
		t.Errorf("M = %d, want 1 after dedup", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees = %d,%d want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	g := buildPath(t, 5)
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			want := (u-v == 1) || (v-u == 1)
			if g.HasEdge(u, v) != want {
				t.Errorf("HasEdge(%d,%d) = %v, want %v", u, v, g.HasEdge(u, v), want)
			}
		}
	}
	if g.HasEdge(0, 0) {
		t.Error("HasEdge(0,0) must be false")
	}
	if g.HasEdge(-1, 2) || g.HasEdge(2, 99) {
		t.Error("out-of-range HasEdge must be false")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(6)
	for _, v := range []int{5, 2, 4, 1, 3} {
		if err := b.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ns := g.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("neighbors not sorted: %v", ns)
		}
	}
}

func TestEdgesIteration(t *testing.T) {
	g := buildPath(t, 4)
	var got [][2]int
	g.Edges(func(u, v int) {
		got = append(got, [2]int{u, v})
		if u >= v {
			t.Errorf("Edges must emit u < v, got (%d,%d)", u, v)
		}
	})
	if len(got) != 3 {
		t.Errorf("iterated %d edges, want 3", len(got))
	}
}

func TestDegreeHistogram(t *testing.T) {
	// Star K_{1,4}: one vertex of degree 4, four of degree 1.
	b := NewBuilder(5)
	for v := 1; v < 5; v++ {
		if err := b.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	h := g.DegreeHistogram()
	want := []int{0, 4, 0, 0, 1}
	if len(h) != len(want) {
		t.Fatalf("histogram %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram %v, want %v", h, want)
		}
	}
}

func TestTailCounts(t *testing.T) {
	b := NewBuilder(5)
	for v := 1; v < 5; v++ {
		if err := b.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	tc := g.TailCounts()
	// Degrees: 4,1,1,1,1. Tail at k=0 is 5; k=1 is 5; k=2..4 is 1; k=5 is 0.
	wants := map[int]int{0: 5, 1: 5, 2: 1, 3: 1, 4: 1, 5: 0}
	for k, want := range wants {
		if tc[k] != want {
			t.Errorf("TailCounts[%d] = %d, want %d", k, tc[k], want)
		}
	}
}

func TestVerticesByDegreeDesc(t *testing.T) {
	b := NewBuilder(4)
	// Degrees: v0=1, v1=2, v2=2, v3=1.
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 1, 2)
	mustAdd(t, b, 2, 3)
	g := b.Build()
	order := g.VerticesByDegreeDesc()
	want := []int{1, 2, 0, 3} // ties by vertex ID
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func mustAdd(t *testing.T, b *Builder, u, v int) {
	t.Helper()
	if err := b.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func TestBFSPath(t *testing.T) {
	g := buildPath(t, 6)
	d := g.BFS(0)
	for i := 0; i < 6; i++ {
		if d[i] != i {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], i)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4)
	mustAdd(t, b, 0, 1)
	g := b.Build()
	d := g.BFS(0)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Errorf("unreachable distances = %d,%d", d[2], d[3])
	}
}

func TestBFSBoundedDepth(t *testing.T) {
	g := buildPath(t, 10)
	got := g.BFSBounded(0, 3, nil)
	if len(got) != 4 {
		t.Fatalf("reached %d vertices, want 4 (0..3)", len(got))
	}
	for v, d := range got {
		if d != v {
			t.Errorf("dist[%d] = %d", v, d)
		}
	}
}

func TestBFSBoundedFilter(t *testing.T) {
	// 0-1-2 and 0-3, with vertex 1 disallowed: 2 must be unreachable.
	b := NewBuilder(4)
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 1, 2)
	mustAdd(t, b, 0, 3)
	g := b.Build()
	got := g.BFSBounded(0, 5, func(v int) bool { return v != 1 })
	if _, ok := got[2]; ok {
		t.Error("vertex 2 reachable despite blocked vertex 1")
	}
	if d, ok := got[3]; !ok || d != 1 {
		t.Errorf("vertex 3: %d,%v", d, ok)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 1, 2)
	mustAdd(t, b, 3, 4)
	g := b.Build()
	comp, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Error("3,4 should share a component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("5 should be isolated")
	}
}

func TestDiameterPath(t *testing.T) {
	g := buildPath(t, 7)
	if d := g.Diameter(); d != 6 {
		t.Errorf("Diameter = %d, want 6", d)
	}
}

func TestDistSpotChecks(t *testing.T) {
	g := buildPath(t, 5)
	if d := g.Dist(0, 4); d != 4 {
		t.Errorf("Dist(0,4) = %d", d)
	}
	if d := g.Dist(2, 2); d != 0 {
		t.Errorf("Dist(2,2) = %d", d)
	}
	if d := g.Dist(0, 99); d != Unreachable {
		t.Errorf("Dist out of range = %d", d)
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0.
	b := NewBuilder(4)
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 1, 2)
	mustAdd(t, b, 0, 2)
	mustAdd(t, b, 0, 3)
	g := b.Build()
	sub, err := g.InducedSubgraph([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced triangle: n=%d m=%d", sub.N(), sub.M())
	}
	// Every pair adjacent (it is a triangle).
	for u := 0; u < 3; u++ {
		for v := u + 1; v < 3; v++ {
			if !sub.HasEdge(u, v) {
				t.Errorf("induced HasEdge(%d,%d) = false", u, v)
			}
		}
	}
	if _, err := g.InducedSubgraph([]int{0, 0}); err == nil {
		t.Error("duplicate vertex accepted")
	}
	if _, err := g.InducedSubgraph([]int{99}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestEqualGraph(t *testing.T) {
	a := buildPath(t, 4)
	b := buildPath(t, 4)
	if !EqualGraph(a, b) {
		t.Error("identical paths not equal")
	}
	c := buildRandom(t, 4, 0.9, 7)
	if EqualGraph(a, c) && c.M() != a.M() {
		t.Error("different graphs reported equal")
	}
}

// Property: HasEdge agrees with membership in the Neighbors list.
func TestQuickHasEdgeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		g := buildRandom(t, 30, 0.15, seed)
		for u := 0; u < g.N(); u++ {
			inList := map[int]bool{}
			for _, w := range g.Neighbors(u) {
				inList[int(w)] = true
			}
			for v := 0; v < g.N(); v++ {
				if g.HasEdge(u, v) != inList[v] {
					return false
				}
				if g.HasEdge(u, v) != g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: sum of degrees equals twice the edge count.
func TestQuickHandshake(t *testing.T) {
	f := func(seed int64) bool {
		g := buildRandom(t, 50, 0.1, seed)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: BFS distances satisfy the triangle property along edges:
// |d(u) - d(v)| <= 1 for every edge (u,v) reachable from the source.
func TestQuickBFSEdgeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		g := buildRandom(t, 40, 0.08, seed)
		d := g.BFS(0)
		ok := true
		g.Edges(func(u, v int) {
			du, dv := d[u], d[v]
			if du == Unreachable != (dv == Unreachable) {
				ok = false
				return
			}
			if du != Unreachable && abs(du-dv) > 1 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
