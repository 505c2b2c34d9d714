package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// Slab encode pipeline
//
// The fat/thin layout fixes every label's exact bit length up front: a fat
// label is 1 + w + k bits, a thin label 1 + w + e·w (w = ceil(log2 n), k =
// number of fat vertices, e = the entries the label lists: its degree under
// ThinEdgesBoth, its neighbors of smaller identifier under ThinEdgesOnce —
// see fatthin.go). The pipeline exploits that in two phases:
//
//  1. size-plan: compute each vertex's label bit length from its entry count
//     and fat/thin class, then prefix-sum word-aligned offsets into one shared
//     slab — one allocation for the entire labeling;
//  2. fill: write every label in place, in parallel across word-balanced
//     rank ranges. Fat bitmaps are built by OR stores at computed bit
//     positions (no intermediate Vector, no copy), thin neighbor lists —
//     gathered and sorted a block of ranks at a time (eachLabel) — by packed
//     64-bit word stores through a bitstr.SlabWriter.
//
// The result is a Labeling born compact (arena-backed), which NewQueryEngine
// adopts zero-copy, and which labelstore writes as a single body blob. The
// labels are bit-for-bit identical to those of the one-Builder-per-label
// reference encoders kept in legacy_test.go (TestPipelineMatchesLegacy*).
//
// An optional layout pass (Layout, layout.go) reorders the *physical* slots:
// LayoutDegree stores bodies in descending-degree order — hubs packed into
// the first contiguous pages, thin tail after — while every label keeps its
// exact bits and its id-indexed offset, carried by the rank→vertex permutation
// that the Labeling, the labelstore format and the query engine all thread
// through.

// slabPlan is the output of phase 1: the identifier tables and the exact
// slab layout.
type slabPlan struct {
	w, k int
	// once is the ThinEdgesOnce choice: thin bodies hold only the neighbors
	// of smaller identifier. thinEntries and eachLabel — the size plan and the
	// gather — are the only code that asks.
	once    bool
	id      []int32
	bitLens []int
	// byID[i] is the vertex whose identifier is i (ids are a permutation);
	// fatBits[v>>6] bit v&63 is set iff id[v] < k — the L1-resident fat test
	// of the bitmap fill.
	byID    []int32
	fatBits []uint64
	// order, when non-nil, is the physical layout permutation: slab rank r
	// holds vertex order[r]'s label. LayoutDegree simply points it at byID —
	// identifiers are assigned in descending-degree order (fat hubs 0..k-1,
	// then the thin tail), so identifier order *is* degree order and the
	// layout pass costs nothing beyond the plan's existing tables.
	order []int32
	// offs[v] is the bit offset of label v's word-aligned start (id-indexed,
	// non-monotonic under a permuted layout); physOffs[r] is the offset of
	// slab rank r (monotonic — what splitByWords and the slab size read),
	// with physOffs[n] the total slab size in bits. Under LayoutID the two
	// share backing.
	offs     []int64
	physOffs []int64
}

// newSlabPlan builds the identifier tables for an n-vertex plan.
func newSlabPlan(g *graph.Graph, tau, w int) *slabPlan {
	id, k := assignFatThinIDs(g, tau)
	n := g.N()
	p := &slabPlan{w: w, k: k, id: make([]int32, n), bitLens: make([]int, n)}
	p.byID = make([]int32, n)
	p.fatBits = make([]uint64, (n+63)>>6)
	for v, i := range id {
		p.id[v] = int32(i)
		p.byID[i] = int32(v)
		if i < k {
			p.fatBits[v>>6] |= 1 << uint(v&63)
		}
	}
	return p
}

// thinEntries is the number of identifiers thin vertex v's label lists.
func (p *slabPlan) thinEntries(g *graph.Graph, v int) int {
	if !p.once {
		return g.Degree(v)
	}
	entries, vid := 0, p.id[v]
	for _, u := range g.Neighbors(v) {
		if p.id[u] < vid {
			entries++
		}
	}
	return entries
}

// eachLabel calls visit(v, nbr) for the vertex at every slab rank in [lo, hi),
// in rank order (vertex order while no layout is chosen yet): nbr is a thin
// vertex's label body — the identifiers it lists, in ascending order — and
// empty for a fat one, and is only valid during the call.
//
// The bodies are built a block of ranks at a time, in two passes, because the
// lists are short (below the fat threshold, a handful of entries for most
// vertices) and the identifier table is too large for the near caches: the
// first pass only loads and stores, so the misses of many vertices are in
// flight together; the second sorts lists that are by then in L1. Sorting as
// each list is gathered would hang every compare on a miss. Every list is
// independent of every other and reads only the graph and the identifier
// table, so each plan or fill worker builds the lists of its own ranks as it
// goes; nothing serial stands in front of them.
func (p *slabPlan) eachLabel(g *graph.Graph, lo, hi int, visit func(v int, nbr []int32)) {
	const block = 256
	var (
		ids  []int32
		ends [block]int
	)
	for ; lo < hi; lo += block {
		blockHi := min(lo+block, hi)
		ids = ids[:0]
		for r := lo; r < blockHi; r++ {
			if v := p.vertexAt(r); int(p.id[v]) >= p.k {
				vid := p.id[v]
				for _, u := range g.Neighbors(v) {
					if uid := p.id[u]; uid < vid || !p.once {
						ids = append(ids, uid)
					}
				}
			}
			ends[r-lo] = len(ids)
		}
		from := 0
		for r := lo; r < blockHi; r++ {
			nbr := ids[from:ends[r-lo]]
			slices.Sort(nbr)
			visit(p.vertexAt(r), nbr)
			from = ends[r-lo]
		}
	}
}

// fillFatBitmap sets, in hub v's k-bit bitmap starting at slab bit base, the
// bit of every fat neighbor's identifier.
func (p *slabPlan) fillFatBitmap(g *graph.Graph, v int, slab []byte, base int64) {
	for _, u := range g.Neighbors(v) {
		if p.fatBits[u>>6]&(1<<uint(u&63)) != 0 {
			bitstr.SlabSetBit(slab, base+int64(p.id[u]))
		}
	}
}

// layout prefix-sums word-aligned label offsets from the bit lengths, in the
// physical order the chosen layout dictates. LayoutID keeps the historical
// identity (label v at slot v); LayoutDegree walks ranks through byID, which
// packs the fat-set hubs — the labels skewed traffic actually touches — into
// the first contiguous pages of the slab, thin tail after.
func (p *slabPlan) layout(lay Layout) {
	n := len(p.bitLens)
	if lay == LayoutDegree && n > 1 { // one slot or none: nothing to reorder
		p.order = p.byID
	}
	p.physOffs = make([]int64, n+1)
	words := 0
	for r := 0; r < n; r++ {
		p.physOffs[r] = int64(words) * bitstr.SlabWordBits
		words += bitstr.SlabWords(p.bitLens[p.vertexAt(r)])
	}
	p.physOffs[n] = int64(words) * bitstr.SlabWordBits
	if p.order == nil {
		p.offs = p.physOffs[:n]
		return
	}
	p.offs = make([]int64, n)
	for r, v := range p.order {
		p.offs[v] = p.physOffs[r]
	}
}

// vertexAt maps a slab rank to the vertex whose label occupies it.
func (p *slabPlan) vertexAt(r int) int {
	if p.order == nil {
		return r
	}
	return int(p.order[r])
}

// splitByWords partitions slab ranks into up to `workers` contiguous ranges
// of roughly equal slab footprint, so one hub-heavy range cannot serialize
// the fill phase. offs must be the monotonic rank-indexed offsets
// (plan.physOffs); under a permuted layout the ranges are rank ranges, which
// keeps each worker's stores contiguous in the slab.
func splitByWords(offs []int64, workers int) [][2]int {
	n := len(offs) - 1
	total := offs[n]
	out := make([][2]int, 0, workers)
	lo := 0
	for i := 1; i <= workers && lo < n; i++ {
		target := total * int64(i) / int64(workers)
		hi := lo
		for hi < n && offs[hi] < target {
			hi++
		}
		if hi > lo {
			out = append(out, [2]int{lo, hi})
			lo = hi
		}
	}
	return out
}

// runRanges executes fill over the ranges, one goroutine per range beyond
// the first caller-run one.
func runRanges(ranges [][2]int, fill func(lo, hi int)) {
	if len(ranges) <= 1 { // one range, or none for the empty graph
		for _, r := range ranges {
			fill(r[0], r[1])
		}
		return
	}
	var wg sync.WaitGroup
	for _, r := range ranges[1:] {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi)
		}(r[0], r[1])
	}
	fill(ranges[0][0], ranges[0][1])
	wg.Wait()
}

// runRangesErr is runRanges for a phase that can fail: every range reports
// into its own slot, so the workers share no variable, and the lowest
// range's error is returned — the same error whatever the scheduling.
func runRangesErr(ranges [][2]int, plan func(lo, hi int) error) error {
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges[1:] {
		wg.Add(1)
		go func(slot, lo, hi int) {
			defer wg.Done()
			errs[slot] = plan(lo, hi)
		}(i+1, r[0], r[1])
	}
	errs[0] = plan(ranges[0][0], ranges[0][1])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeFatThinSlab is the pipeline encoder behind FatThinScheme.Encode and
// EncodeParallel. workers <= 0 selects GOMAXPROCS; lay selects the physical
// body order (LayoutDegree returns a permuted arena labeling, answers
// unchanged).
func encodeFatThinSlab(name string, g *graph.Graph, tau, workers int, lay Layout, thin ThinEdges) (*Labeling, error) {
	if tau < 1 {
		return nil, fmt.Errorf("core: threshold must be >= 1, got %d", tau)
	}
	n := g.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n)) // n = 0 plans and fills nothing
	w := bitstr.WidthFor(uint64(n))
	header := 1 + w

	// Phase 1: size-plan. Fat/thin class and entry count determine each label
	// exactly. Counting a once-layout label's entries reads its neighbors'
	// identifiers, so the scan runs in parallel, as the compressed plan does.
	planStart := time.Now()
	plan := newSlabPlan(g, tau, w)
	plan.once = thin == ThinEdgesOnce
	id, k := plan.id, int32(plan.k)
	runRanges(evenRanges(n, workers), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if id[v] < k {
				plan.bitLens[v] = header + plan.k
			} else {
				plan.bitLens[v] = header + plan.thinEntries(g, v)*w
			}
		}
	})
	plan.layout(lay)
	pipelineMetrics.PlanNs.ObserveDuration(time.Since(planStart))

	// Phase 2: parallel direct-to-arena fill.
	fillStart := time.Now()
	slab := make([]byte, int(plan.physOffs[n]>>3))
	runRanges(splitByWords(plan.physOffs, workers), func(lo, hi int) {
		fillFatThinSlab(plan, g, slab, lo, hi)
	})
	pipelineMetrics.FillNs.ObserveDuration(time.Since(fillStart))
	pipelineMetrics.Runs.Inc()
	pipelineMetrics.Labels.Add(int64(n))
	return newArenaLabeling(name, slab, plan, &FatThinDecoder{n: n, w: w}), nil
}

// fillFatThinSlab writes the labels of slab ranks [lo, hi) directly into the
// slab; what it allocates is eachLabel's scratch, once per range.
func fillFatThinSlab(plan *slabPlan, g *graph.Graph, slab []byte, lo, hi int) {
	sw := bitstr.NewSlabWriter(slab)
	id, k, w := plan.id, int32(plan.k), plan.w
	plan.eachLabel(g, lo, hi, func(v int, nbr []int32) {
		off := plan.offs[v]
		sw.SeekBit(off)
		// The header — fat bit then the w-bit identifier — is one write: the
		// flag is simply bit w of a (1+w)-bit field.
		if vid := id[v]; vid < k { // fat: OR stores into the k-bit bitmap
			sw.WriteUint(1<<uint(w)|uint64(vid), 1+w)
			sw.Flush()
			plan.fillFatBitmap(g, v, slab, off+int64(1+w))
		} else { // thin: packed sorted neighbor ids, 64 bits per store
			sw.WriteUint(uint64(vid), 1+w)
			sw.WriteUints32(nbr, w)
			sw.Flush()
		}
	})
}

// encodeCompressedSlab is the pipeline encoder behind CompressedScheme. The
// size plan is heavier than the fat/thin one — choosing between fixed-width
// and δ-gap thin encodings requires the sorted neighbor ids, which it builds
// as the fill does — so phase 1 is parallelized too; only the prefix sum is
// sequential.
func encodeCompressedSlab(name string, g *graph.Graph, tau, workers int, lay Layout) (*Labeling, error) {
	if tau < 1 {
		return nil, fmt.Errorf("core: threshold must be >= 1, got %d", tau)
	}
	n := g.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	w := bitstr.WidthFor(uint64(n))
	header := 1 + w

	planStart := time.Now()
	plan := newSlabPlan(g, tau, w)
	id, k := plan.id, int32(plan.k)
	gapFlag := make([]bool, n)

	// Phase 1 (parallel): exact per-label sizes and encoding choices.
	runRanges(evenRanges(n, workers), func(lo, hi int) {
		plan.eachLabel(g, lo, hi, func(v int, nbr []int32) {
			if id[v] < k {
				plan.bitLens[v] = header + plan.k
				return
			}
			gapBits := 0
			prev := uint64(0)
			for i, x := range nbr {
				gap := uint64(x) - prev
				if i == 0 {
					gap = uint64(x)
				}
				gapBits += bitstr.DeltaLen(gap + 1)
				prev = uint64(x)
			}
			if fixed := len(nbr) * w; gapBits < fixed {
				gapFlag[v] = true
				plan.bitLens[v] = header + 1 + gapBits
			} else {
				plan.bitLens[v] = header + 1 + fixed
			}
		})
	})
	plan.layout(lay)
	pipelineMetrics.PlanNs.ObserveDuration(time.Since(planStart))

	// Phase 2 (parallel): fill, over rank ranges as in fillFatThinSlab.
	fillStart := time.Now()
	slab := make([]byte, int(plan.physOffs[n]>>3))
	runRanges(splitByWords(plan.physOffs, workers), func(lo, hi int) {
		sw := bitstr.NewSlabWriter(slab)
		plan.eachLabel(g, lo, hi, func(v int, nbr []int32) {
			off := plan.offs[v]
			sw.SeekBit(off)
			if vid := id[v]; vid < k {
				sw.WriteUint(1<<uint(w)|uint64(vid), 1+w)
				sw.Flush()
				plan.fillFatBitmap(g, v, slab, off+int64(header))
				return
			}
			sw.WriteUint(uint64(id[v]), 1+w)
			sw.WriteBit(gapFlag[v])
			if gapFlag[v] {
				prev := uint64(0)
				for i, x := range nbr {
					gap := uint64(x) - prev
					if i == 0 {
						gap = uint64(x)
					}
					sw.WriteDelta0(gap)
					prev = uint64(x)
				}
			} else {
				sw.WriteUints32(nbr, w)
			}
			sw.Flush()
		})
	})
	pipelineMetrics.FillNs.ObserveDuration(time.Since(fillStart))
	pipelineMetrics.Runs.Inc()
	pipelineMetrics.Labels.Add(int64(n))
	return newArenaLabeling(name, slab, plan, &CompressedDecoder{n: n, w: w}), nil
}
