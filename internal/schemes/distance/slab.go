package distance

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Arena entry points: the slab-pipeline encoders behind the distance query
// plane. The graph work is identical to the legacy Encode paths — the same
// pruned landmark BFS sweeps for PLL, the same bounded BFS tables for
// Lemma 7 — but instead of building one bitstr.String per vertex, the
// per-vertex entry lists are handed to core's parallel size-plan →
// prefix-sum → fill pipeline, which writes the whole labeling into one
// byte-packed slab (δ-gap hub ranks for PLL; bit-identical legacy layout
// for bdist). The result is a core.DistArena that NewDistEngine adopts
// zero-copy and labelstore stores as its body blob under the matching
// scheme= record kind.

// EncodeArena builds pruned landmark labels for g directly into a slab
// arena. workers drives the pipeline's plan/fill parallelism (the pruned
// BFS itself is inherently sequential in landmark order); lay selects the
// physical body order — LayoutDegree packs hub-heavy labels first, in the
// landmark (descending-degree) order the scheme already computes.
func (s PLLScheme) EncodeArena(g *graph.Graph, workers int, lay core.Layout) (*core.DistArena, error) {
	entries, maxDist, degOrder := pllEntries(g)
	var order []int32
	if lay == core.LayoutDegree {
		order = make([]int32, len(degOrder))
		for r, v := range degOrder {
			order[r] = int32(v)
		}
	}
	return core.EncodePLLArena(entries, maxDist, order, workers)
}

// pllEntries runs the pruned landmark BFS sweep and returns each vertex's
// (landmark rank, distance) list — sorted by rank, exactly as the pruning
// emits it — plus the largest stored distance and the landmark order
// itself (vertices by descending degree).
//
// The prune is the standard pruned-landmark test: before each landmark's
// BFS its current entries are scattered into a rank-indexed table
// (rootDist[rank] = distance, ∞ elsewhere), so asking whether the labels
// already certify dist(root, u) <= du is one pass over u's entries that
// stops at the first certificate, instead of a two-list merge computing the
// exact minimum. "A certificate exists" and "the minimum is <= du" are the
// same predicate, so the entry lists are identical to the merge-based
// prune's (TestPLLEntriesMatchMergePrune).
func pllEntries(g *graph.Graph) (entries [][]core.DistEntry, maxDist int32, order []int) {
	n := g.N()
	order = g.VerticesByDegreeDesc()
	entries = make([][]core.DistEntry, n)

	const inf = int32(1 << 30) // inf + any BFS distance stays inside int32
	rootDist := make([]int32, n)
	for i := range rootDist {
		rootDist[i] = inf
	}

	// Pruned BFS from each landmark in rank order.
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, 256)
	for r, vk := range order {
		for _, e := range entries[vk] {
			rootDist[e.ID] = e.D
		}
		queue = queue[:0]
		dist[vk] = 0
		queue = append(queue, int32(vk))
	bfs:
		for head := 0; head < len(queue); head++ {
			u := int(queue[head])
			du := dist[u]
			// Prune: if the existing labels already certify dist(vk,u) <= du,
			// u needs no new entry and its subtree is covered via vk's
			// earlier landmarks.
			for _, e := range entries[u] {
				if rootDist[e.ID]+e.D <= du {
					continue bfs
				}
			}
			entries[u] = append(entries[u], core.DistEntry{ID: int32(r), D: du})
			if du > maxDist {
				maxDist = du
			}
			for _, wv := range g.Neighbors(u) {
				if dist[wv] < 0 {
					dist[wv] = du + 1
					queue = append(queue, wv)
				}
			}
		}
		// Every visited vertex is in the queue exactly once.
		for _, u := range queue {
			dist[u] = -1
		}
		// The root's own (r, 0) entry, added by this sweep, was never
		// scattered; clearing it is harmless.
		for _, e := range entries[vk] {
			rootDist[e.ID] = inf
		}
	}
	return entries, maxDist, order
}

// EncodeArena builds the Lemma 7 bounded-distance labeling directly into a
// slab arena, each label bit-for-bit identical to the legacy Encode output.
// lay as in PLLScheme.EncodeArena (LayoutDegree orders bodies by descending
// degree, fat hubs first).
func (s Scheme) EncodeArena(g *graph.Graph, workers int, lay core.Layout) (*core.DistArena, error) {
	if s.F < 1 {
		return nil, fmt.Errorf("distance: bound F must be >= 1, got %d", s.F)
	}
	n := g.N()
	fat, fatDist, thin, err := s.boundedTables(g)
	if err != nil {
		return nil, err
	}
	var order []int32
	if lay == core.LayoutDegree {
		order = make([]int32, n)
		for r, v := range g.VerticesByDegreeDesc() {
			order[r] = int32(v)
		}
	}
	return core.EncodeBoundedArena(fat, fatDist, thin, s.F, order, workers)
}

// boundedTables computes the Lemma 7 label contents: the fat flag per
// vertex, every vertex's fat-hub distance table (sentinel F+1), and each
// thin vertex's sorted thin-reachability list.
func (s Scheme) boundedTables(g *graph.Graph) (fat []bool, fatDist [][]int32, thin [][]core.DistEntry, err error) {
	n := g.N()
	tau, err := s.Threshold(n)
	if err != nil {
		return nil, nil, nil, err
	}
	hubs, fatIsSet := fatHubs(g, tau)
	fat = fatIsSet

	sentinel := int32(s.F + 1)
	fatDist = make([][]int32, n)
	for v := range fatDist {
		row := make([]int32, len(hubs))
		for i := range row {
			row[i] = sentinel
		}
		fatDist[v] = row
	}
	for i, fv := range hubs {
		for v, d := range g.BFSBounded(fv, s.F, nil) {
			fatDist[v][i] = int32(d)
		}
	}

	thin = make([][]core.DistEntry, n)
	for v := 0; v < n; v++ {
		if fat[v] {
			continue
		}
		reach := g.BFSBounded(v, s.F, func(u int) bool { return !fat[u] })
		list := make([]core.DistEntry, 0, len(reach))
		for u, d := range reach {
			if u != v {
				list = append(list, core.DistEntry{ID: int32(u), D: int32(d)})
			}
		}
		sortDistEntries(list) // deterministic labels, sorted for binary search
		thin[v] = list
	}
	return fat, fatDist, thin, nil
}

// sortDistEntries orders a thin list by vertex id ascending.
func sortDistEntries(list []core.DistEntry) {
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
}

// sortHubs orders the fat set by (degree desc, id asc) — the table index
// order of Lemma 7's labels.
func sortHubs(g *graph.Graph, hubs []int) {
	sort.Slice(hubs, func(i, j int) bool {
		di, dj := g.Degree(hubs[i]), g.Degree(hubs[j])
		if di != dj {
			return di > dj
		}
		return hubs[i] < hubs[j]
	})
}

// fatHubs returns the fat vertices sorted by (degree desc, id asc) — table
// index order — and the per-vertex fat flag.
func fatHubs(g *graph.Graph, tau int) ([]int, []bool) {
	n := g.N()
	var hubs []int
	for v := 0; v < n; v++ {
		if g.Degree(v) >= tau {
			hubs = append(hubs, v)
		}
	}
	sortHubs(g, hubs)
	fat := make([]bool, n)
	for _, v := range hubs {
		fat[v] = true
	}
	return hubs, fat
}
