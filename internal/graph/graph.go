// Package graph provides the undirected-graph substrate shared by all
// labeling schemes, generators and experiments in this repository.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected, as in
// the paper. A Graph is an immutable compressed-sparse-row structure built
// once via a Builder; after Build it is safe for concurrent readers and all
// adjacency lists are sorted, enabling O(log deg) membership tests.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// ErrVertexRange is returned for vertex IDs outside [0, n).
var ErrVertexRange = errors.New("graph: vertex out of range")

// ErrSelfLoop is returned when an edge (v, v) is added.
var ErrSelfLoop = errors.New("graph: self-loop not allowed")

// Builder accumulates edges for a graph on a fixed vertex set {0..n-1}.
// Parallel edges are deduplicated at Build time. The zero value is a builder
// for the empty graph on zero vertices.
type Builder struct {
	n   int
	adj [][]int32
}

// NewBuilder returns a builder for a graph with n vertices and no edges.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n, adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (b *Builder) N() int { return b.n }

// AddEdge records the undirected edge {u, v}. Adding an existing edge is a
// no-op after Build's deduplication. Self-loops and out-of-range endpoints
// are rejected.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	b.adj[u] = append(b.adj[u], int32(v))
	b.adj[v] = append(b.adj[v], int32(u))
	return nil
}

// HasEdge reports whether {u,v} has been added (linear scan; intended for
// generators that must avoid duplicate edges on small neighborhoods).
func (b *Builder) HasEdge(u, v int) bool {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return false
	}
	// Scan the shorter list.
	if len(b.adj[u]) > len(b.adj[v]) {
		u, v = v, u
	}
	for _, w := range b.adj[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Degree returns the current degree of v counting any not-yet-deduplicated
// parallel additions.
func (b *Builder) Degree(v int) int {
	if v < 0 || v >= b.n {
		return 0
	}
	return len(b.adj[v])
}

// Build freezes the builder into an immutable Graph. Adjacency lists are
// sorted and deduplicated. The builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	offsets := make([]int64, b.n+1)
	total := 0
	for v := range b.adj {
		slices.Sort(b.adj[v])
		b.adj[v] = slices.Compact(b.adj[v])
		total += len(b.adj[v])
	}
	neighbors := make([]int32, total)
	pos := 0
	for v := range b.adj {
		offsets[v] = int64(pos)
		pos += copy(neighbors[pos:], b.adj[v])
		b.adj[v] = nil
	}
	offsets[b.n] = int64(pos)
	return &Graph{n: b.n, offsets: offsets, neighbors: neighbors}
}

// Graph is an immutable simple undirected graph in CSR form.
type Graph struct {
	n         int
	offsets   []int64
	neighbors []int32
}

// Empty returns the graph with n vertices and no edges.
func Empty(n int) *Graph { return NewBuilder(n).Build() }

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.neighbors) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u,v} is an edge, in O(log deg(u)) time.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	// Search the smaller list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.Neighbors(u), int32(v))
	return found
}

// Edges calls fn for every edge {u,v} with u < v. Iteration order is
// deterministic (by u, then v).
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// Degrees returns a fresh slice of all vertex degrees, indexed by vertex.
func (g *Graph) Degrees() []int {
	out := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		out[v] = g.Degree(v)
	}
	return out
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// DegreeHistogram returns h where h[k] is the number of vertices of degree
// k, for k in [0, MaxDegree].
func (g *Graph) DegreeHistogram() []int {
	h := make([]int, g.MaxDegree()+1)
	for v := 0; v < g.n; v++ {
		h[g.Degree(v)]++
	}
	return h
}

// TailCounts returns t where t[k] = sum over i >= k of |V_i| — the quantity
// bounded by Definition 1 (the P_h family). t has length MaxDegree+2 so that
// t[MaxDegree+1] == 0.
func (g *Graph) TailCounts() []int {
	h := g.DegreeHistogram()
	t := make([]int, len(h)+1)
	for k := len(h) - 1; k >= 0; k-- {
		t[k] = t[k+1] + h[k]
	}
	return t
}

// VerticesByDegreeDesc returns all vertex IDs sorted by degree, highest
// first, ties broken by vertex ID for determinism. Implemented as a
// counting sort over the degree histogram — O(n + Δ) instead of a
// comparison sort — because this ordering is the sequential prefix of every
// fat/thin encode.
func (g *Graph) VerticesByDegreeDesc() []int {
	maxDeg := g.MaxDegree()
	// start[d] = first output slot for degree d, with degrees placed from
	// high to low and vertices scanned in increasing ID within each degree.
	start := make([]int, maxDeg+2)
	for v := 0; v < g.n; v++ {
		start[g.Degree(v)]++
	}
	pos := 0
	for d := maxDeg; d >= 0; d-- {
		c := start[d]
		start[d] = pos
		pos += c
	}
	vs := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		d := g.Degree(v)
		vs[start[d]] = v
		start[d]++
	}
	return vs
}

// InducedSubgraph returns the subgraph induced by the given vertices, with
// vertex i of the result corresponding to vertices[i]. Duplicate or
// out-of-range entries are rejected.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, error) {
	idx := make(map[int]int, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.n {
			return nil, fmt.Errorf("%w: %d", ErrVertexRange, v)
		}
		if _, dup := idx[v]; dup {
			return nil, fmt.Errorf("graph: duplicate vertex %d in induced set", v)
		}
		idx[v] = i
	}
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		for _, w := range g.Neighbors(v) {
			if j, ok := idx[int(w)]; ok && j > i {
				if err := b.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build(), nil
}

// EqualGraph reports whether two graphs have identical vertex sets and edge
// sets.
func EqualGraph(a, b *Graph) bool {
	if a.n != b.n || len(a.neighbors) != len(b.neighbors) {
		return false
	}
	for v := 0; v < a.n; v++ {
		la, lb := a.Neighbors(v), b.Neighbors(v)
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			if la[i] != lb[i] {
				return false
			}
		}
	}
	return true
}
