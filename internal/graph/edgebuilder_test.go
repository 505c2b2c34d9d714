package graph

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// randomEdges returns count random non-loop edges on n vertices, with
// duplicates (both orientations) likely.
func randomEdges(n, count int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, count)
	for len(edges) < count {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, Edge{int32(u), int32(v)})
	}
	return edges
}

// buildReference constructs the same graph through the incremental Builder.
func buildReference(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(int(e.U), int(e.V)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestEdgeBuilderMatchesBuilder(t *testing.T) {
	const n, count = 500, 4000
	edges := randomEdges(n, count, 1)
	want := buildReference(t, n, edges)
	eb := NewEdgeBuilder(n, 3)
	for i, e := range edges {
		eb.Shard(i%3).Add(e.U, e.V)
	}
	if got := eb.Len(); got != count {
		t.Fatalf("Len=%d, want %d", got, count)
	}
	got := eb.Build(2)
	if !EqualGraph(want, got) {
		t.Error("EdgeBuilder graph differs from Builder graph")
	}
}

// TestEdgeBuilderWorkerInvariance asserts the central determinism contract:
// the built graph is byte-identical for every worker and shard count given
// the same edge multiset.
func TestEdgeBuilderWorkerInvariance(t *testing.T) {
	const n, count = 800, 6000
	edges := randomEdges(n, count, 2)
	serialize := func(g *Graph) []byte {
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var ref []byte
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		for _, shards := range []int{1, workers} {
			eb := NewEdgeBuilder(n, shards)
			for i, e := range edges {
				eb.Shard(i%shards).Add(e.U, e.V)
			}
			got := serialize(eb.Build(workers))
			if ref == nil {
				ref = got
			} else if !bytes.Equal(ref, got) {
				t.Errorf("workers=%d shards=%d: graph bytes differ", workers, shards)
			}
		}
	}
}

func TestEdgeBuilderDegenerate(t *testing.T) {
	if g := NewEdgeBuilder(0, 1).Build(4); g.N() != 0 || g.M() != 0 {
		t.Error("empty build wrong")
	}
	if g := NewEdgeBuilder(5, 2).Build(0); g.N() != 5 || g.M() != 0 {
		t.Error("edgeless build wrong")
	}
	if g := NewEdgeBuilder(-3, 0).Build(1); g.N() != 0 {
		t.Error("negative n not clamped")
	}
}

func TestEdgeBuilderAddEdgeValidates(t *testing.T) {
	eb := NewEdgeBuilder(4, 1)
	if err := eb.AddEdge(0, 4); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := eb.AddEdge(-1, 2); err == nil {
		t.Error("negative accepted")
	}
	if err := eb.AddEdge(2, 2); err == nil {
		t.Error("self-loop accepted")
	}
	if err := eb.AddEdge(1, 3); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	g := eb.Build(1)
	if g.M() != 1 || !g.HasEdge(1, 3) {
		t.Error("built graph wrong")
	}
}

func TestEdgeBuilderBuildPanicsOnRangeViolation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build accepted out-of-range unchecked Add")
		}
	}()
	eb := NewEdgeBuilder(3, 1)
	eb.Shard(0).Add(0, 9)
	eb.Build(1)
}

func TestEdgeBuilderAddEdgesAdopts(t *testing.T) {
	const n = 100
	edges := randomEdges(n, 1000, 3)
	want := buildReference(t, n, edges)
	eb := NewEdgeBuilder(n, 2)
	eb.Shard(0).AddEdges(edges[:600])
	eb.Shard(1).AddEdges(edges[600:])
	if !EqualGraph(want, eb.Build(3)) {
		t.Error("adopted edges build differs")
	}
}

// TestEdgeBuilderChunkRollover crosses the shard chunk boundary to cover
// the parked-chunk path.
func TestEdgeBuilderChunkRollover(t *testing.T) {
	const n = 64
	count := edgeChunk + edgeChunk/2
	rng := rand.New(rand.NewSource(4))
	eb := NewEdgeBuilder(n, 1)
	b := NewBuilder(n)
	s := eb.Shard(0)
	for i := 0; i < count; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		s.Add(int32(u), int32(v))
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	if !EqualGraph(b.Build(), eb.Build(2)) {
		t.Error("chunk rollover build differs")
	}
}

// TestEdgeBuilderConcurrentShards is the -race stress test: one goroutine
// per shard filling concurrently, then a parallel build.
func TestEdgeBuilderConcurrentShards(t *testing.T) {
	const n, perShard = 300, 5000
	shards := runtime.GOMAXPROCS(0) + 3
	eb := NewEdgeBuilder(n, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	for i := 0; i < shards; i++ {
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			s := eb.Shard(i)
			for j := 0; j < perShard; j++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					s.Add(int32(u), int32(v))
				}
			}
		}(i)
	}
	wg.Wait()
	g := eb.Build(runtime.GOMAXPROCS(0) + 2)
	if g.N() != n {
		t.Fatalf("n=%d", g.N())
	}
	// Sanity: rows sorted and deduplicated.
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i] <= nbrs[i-1] {
				t.Fatalf("row %d not strictly sorted", v)
			}
		}
	}
}

func TestBalancedRanges(t *testing.T) {
	offs := []int64{0, 10, 10, 30, 31, 100}
	cuts := balancedRanges(offs, 3)
	if cuts[0] != 0 || cuts[len(cuts)-1] != 5 {
		t.Fatalf("cuts endpoints wrong: %v", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly increasing: %v", cuts)
		}
	}
	if got := balancedRanges([]int64{0}, 4); got[0] != 0 || got[len(got)-1] != 0 {
		t.Errorf("empty cuts wrong: %v", got)
	}
}
