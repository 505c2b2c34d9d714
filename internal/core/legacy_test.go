package core

import (
	"fmt"
	"sort"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// The original one-Builder-per-label encoders, kept as the executable
// specification of the two label layouts: the slab pipeline must produce
// bit-for-bit the labels these do (TestPipelineMatchesLegacy*), n = 0 and
// n = 1 included. The fat/thin one takes the ThinEdges choice and spells the
// once layout out as a filter on the paper's lists.

// encodeFatThinLegacy is the original one-Builder-per-label encoder. It is
// kept as the executable specification of the label layout: the pipeline
// encoder must produce bit-for-bit identical labels (pipeline_test.go), and
// the BenchmarkEncode* suite measures the pipeline against it.
func encodeFatThinLegacy(name string, g *graph.Graph, tau int, thin ThinEdges) (*Labeling, error) {
	if tau < 1 {
		return nil, fmt.Errorf("core: threshold must be >= 1, got %d", tau)
	}
	n := g.N()
	w := bitstr.WidthFor(uint64(n))
	if n <= 1 {
		// Degenerate graphs: a single empty-ish label per vertex.
		labels := make([]bitstr.String, n)
		for v := range labels {
			var b bitstr.Builder
			b.AppendBit(false)
			b.AppendUint(uint64(v), w)
			labels[v] = b.String()
		}
		return NewLabeling(name, labels, &FatThinDecoder{n: n, w: w}), nil
	}

	id, k := assignFatThinIDs(g, tau)
	labels := make([]bitstr.String, n)
	buildFatThinRange(g, id, k, w, 0, n, labels, newFatThinScratch(k), thin)
	return NewLabeling(name, labels, &FatThinDecoder{n: n, w: w}), nil
}

// fatThinScratch pools the per-vertex working buffers of label
// construction: the bit builder, the k-bit fat adjacency vector, and the
// neighbor-id sort buffer. One scratch serves an entire vertex range, so
// the only allocation left per vertex is the label itself.
type fatThinScratch struct {
	b   bitstr.Builder
	vec *bitstr.Vector
	nbr []int
}

func newFatThinScratch(k int) *fatThinScratch {
	return &fatThinScratch{vec: bitstr.NewVector(k), nbr: make([]int, 0, 64)}
}

// buildFatThinRange writes the labels of vertices [lo, hi) into labels,
// using the shared identifier table and the caller's scratch buffers. It is
// the single label-layout implementation behind both Encode and
// EncodeParallel.
func buildFatThinRange(g *graph.Graph, id []int, k, w, lo, hi int, labels []bitstr.String, sc *fatThinScratch, thin ThinEdges) {
	for v := lo; v < hi; v++ {
		sc.b.Reset()
		if id[v] < k { // fat
			sc.b.AppendBit(true)
			sc.b.AppendUint(uint64(id[v]), w)
			sc.vec.Reset()
			for _, u := range g.Neighbors(v) {
				if uid := id[u]; uid < k {
					sc.vec.Set(uid)
				}
			}
			sc.vec.Append(&sc.b)
		} else { // thin: neighbor ids sorted, enabling O(log n) binary search
			sc.b.AppendBit(false)
			sc.b.AppendUint(uint64(id[v]), w)
			sc.nbr = sc.nbr[:0]
			for _, u := range g.Neighbors(v) {
				if thin == ThinEdgesBoth || id[u] < id[v] {
					sc.nbr = append(sc.nbr, id[u])
				}
			}
			sort.Ints(sc.nbr)
			for _, u := range sc.nbr {
				sc.b.AppendUint(uint64(u), w)
			}
		}
		labels[v] = sc.b.String()
	}
}

// encodeCompressedLegacy is the original Builder-based encoder, kept as the
// executable layout specification the pipeline is tested against
// (pipeline_test.go).
func encodeCompressedLegacy(name string, g *graph.Graph, tau int) (*Labeling, error) {
	if tau < 1 {
		return nil, fmt.Errorf("core: threshold must be >= 1, got %d", tau)
	}
	n := g.N()
	w := bitstr.WidthFor(uint64(n))
	id, k := assignFatThinIDs(g, tau)

	labels := make([]bitstr.String, n)
	var b bitstr.Builder
	nbrIDs := make([]uint64, 0, 64)
	for v := 0; v < n; v++ {
		b.Reset()
		if id[v] < k { // fat: identical to the fixed-width layout
			b.AppendBit(true)
			b.AppendUint(uint64(id[v]), w)
			vec := bitstr.NewVector(k)
			for _, u := range g.Neighbors(v) {
				if uid := id[u]; uid < k {
					vec.Set(uid)
				}
			}
			vec.Append(&b)
		} else { // thin: cheaper of fixed-width ids and δ-coded sorted gaps
			b.AppendBit(false)
			b.AppendUint(uint64(id[v]), w)
			nbrIDs = nbrIDs[:0]
			for _, u := range g.Neighbors(v) {
				nbrIDs = append(nbrIDs, uint64(id[u]))
			}
			sortUint64(nbrIDs)
			gapBits := 0
			prev := uint64(0)
			for i, x := range nbrIDs {
				gap := x - prev
				if i == 0 {
					gap = x
				}
				gapBits += bitstr.DeltaLen(gap + 1)
				prev = x
			}
			if gapBits < len(nbrIDs)*w {
				b.AppendBit(true) // gap encoding
				prev = uint64(0)
				for i, x := range nbrIDs {
					gap := x - prev
					if i == 0 {
						gap = x
					}
					b.AppendDelta0(gap)
					prev = x
				}
			} else {
				b.AppendBit(false) // fixed-width encoding
				for _, x := range nbrIDs {
					b.AppendUint(x, w)
				}
			}
		}
		labels[v] = b.String()
	}
	return NewLabeling(name, labels, &CompressedDecoder{n: n, w: w}), nil
}

func sortUint64(xs []uint64) {
	// Insertion sort: thin lists are short (< τ entries) and usually nearly
	// sorted already (neighbor lists are sorted by vertex, ids by degree).
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}
