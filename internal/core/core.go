// Package core implements the paper's primary contribution: adjacency
// labeling schemes for sparse and power-law graphs based on a fat/thin
// vertex partition (Theorems 3 and 4 of "Near Optimal Adjacency Labeling
// Schemes for Power-Law Graphs", ICALP 2016; announced at PODC 2016).
//
// A labeling scheme is a pair (encoder, decoder): the encoder assigns each
// vertex of a graph a bit-string label, and the decoder determines the
// adjacency of any two vertices from their labels alone — the graph itself
// is never consulted at query time. The package also defines the shared
// Labeling container and size-statistics used by every other scheme in this
// repository.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// ErrBadLabel is returned by decoders when a label cannot be parsed.
var ErrBadLabel = errors.New("core: malformed label")

// ErrVertexRange is returned for queries on vertex IDs outside the labeling.
var ErrVertexRange = errors.New("core: vertex out of range")

// Scheme is an adjacency labeling scheme: an encoder plus a factory for the
// matching decoder. Implementations live in this package and in
// internal/schemes/*.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Encode labels every vertex of g.
	Encode(g *graph.Graph) (*Labeling, error)
}

// AdjacencyDecoder decides adjacency from two labels alone.
type AdjacencyDecoder interface {
	Adjacent(a, b bitstr.String) (bool, error)
}

// Labeling is the output of an encoder: one label per vertex plus the
// decoder able to answer queries over those labels. Every label lives in one
// byte-packed slab (slabArena), described the way stores, the shard split
// and the engines take it. No per-label view is kept: Label wraps one on
// demand, NewQueryEngine adopts the slab as it is.
type Labeling struct {
	scheme  string
	decoder AdjacencyDecoder

	// Labels are immutable after construction, so size statistics are
	// computed at most once.
	statsOnce sync.Once
	stats     SizeStats

	slabArena
}

// NewLabeling bundles per-vertex labels with their decoder, packing them
// into an id-ordered slab (bitstr.PackSlab) — the one form a Labeling takes.
// It is exported for use by the scheme implementations in internal/schemes.
func NewLabeling(scheme string, labels []bitstr.String, dec AdjacencyDecoder) *Labeling {
	l := &Labeling{scheme: scheme, decoder: dec}
	l.slab, l.bitLens = bitstr.PackSlab(labels)
	_, _ = l.layout() // cannot fail: a vertex-ordered slab has no permutation to refuse
	return l
}

// ArenaLayout returns the backing slab together with its physical layout
// permutation: order is nil for a vertex-ordered slab, otherwise the label
// at slab rank r is label order[r]. The pair plus BitLens is what
// NewQueryEngineFromPermutedArena, ShardLabelArenas and
// labelstore.NewPermutedArenaFile accept. ok is always true: every Labeling
// is slab-backed. The slab must not be modified; its padding bits are zero
// (bitstr.SlabWriter and PackSlab guarantee it), which is what lets Label
// hand out unmasked views.
func (l *Labeling) ArenaLayout() (slab []byte, order []int32, ok bool) {
	return l.slab, l.order, true
}

// BitLens returns every label's length in bits, indexed by vertex. It is the
// labeling's own table and must not be modified.
func (l *Labeling) BitLens() []int { return l.bitLens }

// Scheme returns the name of the scheme that produced the labeling.
func (l *Labeling) Scheme() string { return l.scheme }

// N returns the number of labeled vertices.
func (l *Labeling) N() int { return len(l.bitLens) }

// Label returns vertex v's label, a view of the slab made on the spot.
func (l *Labeling) Label(v int) (bitstr.String, error) {
	if v < 0 || v >= l.N() {
		return bitstr.String{}, fmt.Errorf("%w: %d of %d", ErrVertexRange, v, l.N())
	}
	return bitstr.SlabLabel(l.slab, l.offs[v], l.bitLens[v]), nil
}

// Decoder returns the scheme's decoder.
func (l *Labeling) Decoder() AdjacencyDecoder { return l.decoder }

// Adjacent answers an adjacency query between vertices u and v using only
// their labels.
func (l *Labeling) Adjacent(u, v int) (bool, error) {
	lu, err := l.Label(u)
	if err != nil {
		return false, err
	}
	lv, err := l.Label(v)
	if err != nil {
		return false, err
	}
	return l.decoder.Adjacent(lu, lv)
}

// SizeStats summarizes label sizes in bits.
type SizeStats struct {
	Min, Max      int
	Mean          float64
	Total         int64
	P50, P90, P99 int
}

// Stats returns label-size statistics across all vertices. Labels are
// immutable after construction, so the sort-heavy computation runs once and
// the result is memoized.
func (l *Labeling) Stats() SizeStats {
	l.statsOnce.Do(func() { l.stats = SizeStatsOf(l.BitLens()) })
	return l.stats
}

// SizeStatsOf summarizes a labeling's label sizes from its bit lengths: the
// one size summary every labeling, encoder report and experiment table
// prints. Percentile p is the sorted sizes' entry at ⌊p·(n−1)⌋.
func SizeStatsOf(bitLens []int) SizeStats {
	n := len(bitLens)
	if n == 0 {
		return SizeStats{}
	}
	sizes := slices.Clone(bitLens)
	var total int64
	for _, bits := range sizes {
		total += int64(bits)
	}
	sort.Ints(sizes)
	pct := func(p float64) int {
		i := int(p * float64(n-1))
		return sizes[i]
	}
	return SizeStats{
		Min:   sizes[0],
		Max:   sizes[n-1],
		Mean:  float64(total) / float64(n),
		Total: total,
		P50:   pct(0.50),
		P90:   pct(0.90),
		P99:   pct(0.99),
	}
}

// Verify checks the labeling against the source graph. For graphs with at
// most exhaustiveLimit vertices it checks every ordered pair; for larger
// graphs it checks all edges plus sampleNonEdges pseudo-random non-edges per
// vertex. It returns the first discrepancy found.
func (l *Labeling) Verify(g *graph.Graph) error {
	const exhaustiveLimit = 1500
	n := g.N()
	if n != l.N() {
		return fmt.Errorf("core: labeling has %d vertices, graph has %d", l.N(), n)
	}
	if n <= exhaustiveLimit {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				got, err := l.Adjacent(u, v)
				if err != nil {
					return fmt.Errorf("core: query (%d,%d): %w", u, v, err)
				}
				if want := g.HasEdge(u, v); got != want {
					return fmt.Errorf("core: scheme %s: adjacency(%d,%d) = %v, graph says %v",
						l.scheme, u, v, got, want)
				}
			}
		}
		return nil
	}
	// Large graphs: all edges + deterministic pseudo-random non-edges.
	var verr error
	g.Edges(func(u, v int) {
		if verr != nil {
			return
		}
		got, err := l.Adjacent(u, v)
		if err != nil {
			verr = fmt.Errorf("core: query (%d,%d): %w", u, v, err)
			return
		}
		if !got {
			verr = fmt.Errorf("core: scheme %s: edge (%d,%d) decoded as non-adjacent", l.scheme, u, v)
		}
	})
	if verr != nil {
		return verr
	}
	const sampleNonEdges = 4
	state := uint64(0x9E3779B97F4A7C15)
	for u := 0; u < n; u++ {
		for k := 0; k < sampleNonEdges; k++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			v := int(state % uint64(n))
			if v == u || g.HasEdge(u, v) {
				continue
			}
			got, err := l.Adjacent(u, v)
			if err != nil {
				return fmt.Errorf("core: query (%d,%d): %w", u, v, err)
			}
			if got {
				return fmt.Errorf("core: scheme %s: non-edge (%d,%d) decoded as adjacent", l.scheme, u, v)
			}
		}
	}
	return nil
}
