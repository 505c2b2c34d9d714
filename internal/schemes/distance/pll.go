package distance

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
)

// PLLScheme is pruned landmark labeling (Akiba–Iwata–Yoshida), the standard
// practical exact distance labeling for small-world graphs. It stands in
// for the "competing labeling schemes" of Section 7 (Alstrup et al. /
// Gawrychowski et al. target the same exact-distance regime; see DESIGN.md
// for the substitution note): landmarks are processed in decreasing-degree
// order — which is precisely what makes PLL effective on power-law graphs,
// where a few hubs cover most shortest paths — and a landmark enters a
// vertex's label only where no earlier landmark already certifies the
// distance. The labels are built one distance at a time on every core.
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
// (≤ 0 means GOMAXPROCS) drives both the label sweep's rounds and the
// pipeline's plan/fill parallelism, and the bytes do not depend on it. The
// bodies go in the landmark (descending-degree) order the scheme already
// computes, hub-heavy labels first (core.Layout); the Layout argument is
// ignored, since LayoutDegree is the only layout.
func (s PLLScheme) EncodeArena(g *graph.Graph, workers int, _ core.Layout) (*core.DistArena, error) {
	entries, maxDist, degOrder := pllEntries(g, workers)
	order := make([]int32, len(degOrder))
	for r, v := range degOrder {
		order[r] = int32(v)
	}
	return core.EncodePLLArena(entries, maxDist, order, workers)
}

// pllEntries computes the pruned landmark labels of g on workers goroutines
// (≤ 0 means GOMAXPROCS) and returns each vertex's (landmark rank, distance)
// list sorted by rank, the largest stored distance and the landmark order
// itself (vertices by descending degree).
//
// PLL's output is the canonical labeling of its landmark order: (h, d) is in
// v's label iff d = dist(v, h) and h outranks every vertex on every shortest
// v–h path. Instead of a pruned BFS per landmark, the sweep builds that
// labeling one distance at a time (PSL, Li et al. 2019). Round 0 gives every
// vertex its own (rank, 0). Round d offers v every hub h that outranks v
// among the entries its neighbours gained in round d−1, and keeps (h, d)
// unless a hub x in both v's and h's labels certifies d_v(x) + d_h(x) ≤ d.
// If (h, d) is canonical, the next vertex on a shortest v–h path holds
// (h, d−1) canonically, so the candidates are complete, and no hub outranking
// h lies on a shortest path, so nothing prunes it. If it is not, the
// highest-ranked vertex on the shortest v–h paths is a hub of both labels at
// distances below d that sum to at most d, so the prune finds it. The lists
// are therefore the landmark-by-landmark sweep's, entry for entry
// (TestPLLEntriesMatchMergePrune).
//
// A round reads only entries of earlier rounds: its vertices are shared out
// over the workers in chunks, each worker stages its vertices' new entries,
// and after a barrier appends them to those vertices' lists, which no other
// worker touches. The sweep stops after a round that adds nothing, and each
// list, built in distance order, is sorted by rank at the end.
func pllEntries(g *graph.Graph, workers int) (entries [][]core.DistEntry, maxDist int32, order []int) {
	n := g.N()
	order = g.VerticesByDegreeDesc()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))

	rank := make([]int32, n)
	own := make([]core.DistEntry, n)
	entries = make([][]core.DistEntry, n)
	for r, v := range order {
		rank[v] = int32(r)
		own[v] = core.DistEntry{ID: int32(r)}
		entries[v] = own[v : v+1 : v+1]
	}
	sweeps := make([]pllSweep, workers)
	for w := range sweeps {
		sweeps[w].table = make([]int32, n)
		for i := range sweeps[w].table {
			sweeps[w].table[i] = pllInf
		}
	}
	// Small chunks keep every worker busy on small graphs; 256 vertices
	// amortise the shared counter on large ones.
	chunk := max(1, min(256, n/(8*workers)))
	var next atomic.Int64
	claim := func() (lo, hi int) {
		lo = int(next.Add(int64(chunk))) - chunk
		return lo, min(lo+chunk, n)
	}
	for d := int32(1); ; d++ {
		next.Store(0)
		pllParallel(workers, func(w int) {
			s := &sweeps[w]
			s.stage, s.runs = s.stage[:0], s.runs[:0]
			for lo, hi := claim(); lo < n; lo, hi = claim() {
				for v := lo; v < hi; v++ {
					s.round(g, entries, order, rank, v, d)
				}
			}
		})
		added := false
		for w := range sweeps {
			added = added || len(sweeps[w].runs) > 0
		}
		if !added {
			break
		}
		maxDist = d
		pllParallel(workers, func(w int) {
			s := &sweeps[w]
			from := int32(0)
			for _, r := range s.runs {
				list := slices.Grow(entries[r.v], int(r.end-from))
				for _, h := range s.stage[from:r.end] {
					list = append(list, core.DistEntry{ID: h, D: d})
				}
				entries[r.v], from = list, r.end
			}
		})
	}
	next.Store(0)
	pllParallel(workers, func(int) {
		var keys []uint64
		for lo, hi := claim(); lo < n; lo, hi = claim() {
			for _, list := range entries[lo:hi] {
				keys = keys[:0]
				for _, e := range list {
					keys = append(keys, uint64(e.ID)<<32|uint64(e.D))
				}
				slices.Sort(keys)
				for i, k := range keys {
					list[i] = core.DistEntry{ID: int32(k >> 32), D: int32(uint32(k))}
				}
			}
		}
	})
	return entries, maxDist, order
}

const (
	pllInf  = int32(1 << 30) // pllInf + any distance stays inside int32
	pllSeen = pllInf - 1     // a candidate already offered this round: never certifies
)

// pllSweep is one worker's state across the rounds of pllEntries.
type pllSweep struct {
	// table is rank-indexed: while a vertex is in hand it holds the
	// distance of each of its hubs and pllSeen for each candidate offered
	// so far, pllInf elsewhere.
	table []int32
	cand  []int32  // the vertex in hand's candidate hubs
	stage []int32  // this round's new hubs, vertex by vertex
	runs  []pllRun // where each vertex's hubs end in stage
}

type pllRun struct{ v, end int32 }

// round gathers the hubs v's neighbours gained in round d−1 that outrank v
// and stages each one no shared hub prunes as (h, d).
func (s *pllSweep) round(g *graph.Graph, entries [][]core.DistEntry, order []int, rank []int32, v int, d int32) {
	rv, table := rank[v], s.table
	scattered := false
	for _, u := range g.Neighbors(v) {
		lu := entries[u]
		// Lists grow in distance order: round d−1's entries are the tail.
		for i := len(lu) - 1; i >= 0 && lu[i].D == d-1; i-- {
			h := lu[i].ID
			if h >= rv {
				continue
			}
			if !scattered {
				for _, e := range entries[v] {
					table[e.ID] = e.D
				}
				scattered = true
			}
			// Already a hub of v at a smaller distance, or already offered.
			if table[h] != pllInf {
				continue
			}
			table[h] = pllSeen
			s.cand = append(s.cand, h)
		}
	}
	if !scattered {
		return
	}
	// Grown by doubling, not append's 1.25: the stage is kept across
	// rounds, so its final size is allocated about twice, not five times.
	if need := len(s.stage) + len(s.cand); need > cap(s.stage) {
		s.stage = slices.Grow(s.stage, max(need, 2*cap(s.stage))-len(s.stage))
	}
	start := len(s.stage)
next:
	for _, h := range s.cand {
		for _, e := range entries[order[h]] {
			if table[e.ID]+e.D <= d {
				continue next
			}
		}
		s.stage = append(s.stage, h)
	}
	if len(s.stage) > start {
		s.runs = append(s.runs, pllRun{v: int32(v), end: int32(len(s.stage))})
	}
	for _, e := range entries[v] {
		table[e.ID] = pllInf
	}
	for _, h := range s.cand {
		table[h] = pllInf
	}
	s.cand = s.cand[:0]
}

// pllParallel runs f(0) … f(workers−1) concurrently and returns when all
// have.
func pllParallel(workers int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}
