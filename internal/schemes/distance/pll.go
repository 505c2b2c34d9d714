package distance

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// PLLScheme is pruned landmark labeling (Akiba–Iwata–Yoshida), the standard
// practical exact distance labeling for small-world graphs. It stands in
// for the "competing labeling schemes" of Section 7 (Alstrup et al. /
// Gawrychowski et al. target the same exact-distance regime; see DESIGN.md
// for the substitution note): landmarks are processed in decreasing-degree
// order — which is precisely what makes PLL effective on power-law graphs,
// where a few hubs cover most shortest paths — and each BFS is pruned
// wherever existing labels already certify the distance.
//
// Unlike Lemma 7's scheme, PLL answers *every* distance exactly; the E5
// comparison measures what Lemma 7's f-bounded contract buys in label size.
type PLLScheme struct{}

// Name identifies the scheme in experiment output.
func (PLLScheme) Name() string { return "dist-pll" }

// EncodeArena builds pruned landmark labels for g into one slab arena, which
// core.NewDistEngine serves and labelstore stores: per vertex its id, its
// entry count and its (landmark rank, distance) entries sorted by rank, the
// ranks δ-gap coded (core.EncodePLLArena has the bit layout). workers
// drives the pipeline's plan/fill parallelism (the pruned BFS itself is
// inherently sequential in landmark order); lay selects the physical body
// order — LayoutDegree packs hub-heavy labels first, in the landmark
// (descending-degree) order the scheme already computes.
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
