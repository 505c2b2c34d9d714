package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// Slab encode pipeline
//
// The fat/thin layout fixes every label's exact bit length up front: a fat
// label is 1 + w + k bits, a thin label 1 + w + deg·w (w = ceil(log2 n), k =
// number of fat vertices). The pipeline exploits that in two phases:
//
//  1. size-plan: compute each vertex's label bit length from its degree and
//     fat/thin class, then prefix-sum word-aligned offsets into one shared
//     slab — one allocation for the entire labeling;
//  2. fill: write every label in place, in parallel across word-balanced
//     vertex ranges. Fat bitmaps are built by OR stores at computed bit
//     positions (no intermediate Vector, no copy), thin neighbor lists by
//     packed 64-bit word stores through a bitstr.SlabWriter.
//
// The result is a Labeling born compact (arena-backed), which NewQueryEngine
// adopts zero-copy, and which labelstore writes as a single body blob. The
// labels are bit-for-bit identical to the legacy Builder-based encoder's
// (asserted by TestPipelineMatchesLegacy* in pipeline_test.go).
//
// An optional layout pass (Layout, layout.go) reorders the *physical* slots:
// LayoutDegree stores bodies in descending-degree order — hubs packed into
// the first contiguous pages, thin tail after — while every label keeps its
// exact bits and its id-indexed view, carried by the rank→vertex permutation
// that NewPermutedArenaLabeling, the labelstore format and the query engine
// all thread through.

// slabPlan is the output of phase 1: the identifier tables and the exact
// slab layout.
type slabPlan struct {
	w, k    int
	id      []int
	bitLens []int
	// byID[i] is the vertex whose identifier is i (ids are a permutation);
	// fatBits[v>>6] bit v&63 is set iff id[v] < k. Together they drive the
	// counting-sort transpose of the fill phase.
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
	// nbrIDs[nbrOffs[v]:nbrOffs[v+1]] holds thin vertex v's neighbor
	// identifiers in ascending order — the exact body of its label, built by
	// buildNeighborLists. Fat vertices have empty ranges; instead,
	// fatIDs[fatOffs[j]:fatOffs[j+1]] holds the identifiers of hub j's fat
	// neighbors — exactly the set bits of its bitmap.
	nbrOffs []int32
	nbrIDs  []int32
	fatOffs []int32
	fatIDs  []int32
}

// newSlabPlan builds the identifier tables for an n-vertex plan.
func newSlabPlan(g *graph.Graph, tau, w int) *slabPlan {
	id, k := assignFatThinIDs(g, tau)
	n := g.N()
	p := &slabPlan{w: w, k: k, id: id, bitLens: make([]int, n)}
	p.byID = make([]int32, n)
	p.fatBits = make([]uint64, (n+63)>>6)
	for v, i := range id {
		p.byID[i] = int32(v)
		if i < k {
			p.fatBits[v>>6] |= 1 << uint(v&63)
		}
	}
	return p
}

// buildNeighborLists materializes every thin vertex's neighbor-identifier
// list, already sorted ascending, in one O(n + m) pass: walking vertices in
// increasing identifier order and appending that identifier to each
// neighbor's list emits every list's entries in sorted order. This
// counting-sort transpose replaces a comparison sort per thin vertex — the
// sorts were the single hottest piece of the encode profile.
//
// The same walk over hub sources (ids below k) also emits each hub's
// fat-neighbor identifiers — precisely the set bits of its bitmap — so the
// fill phase never rescans hub adjacency or resolves neighbor ids at all.
// The fat test is the plan's L1-resident fatBits bitset, and the cursor
// tables are int32 so the pass's random-access streams stay small.
func (p *slabPlan) buildNeighborLists(g *graph.Graph) {
	n, k := g.N(), p.k
	fat := p.fatBits
	offs := make([]int32, n+1)
	var pos int32
	for v := 0; v < n; v++ {
		offs[v] = pos
		if p.id[v] >= k {
			pos += int32(g.Degree(v))
		}
	}
	offs[n] = pos
	// The scatter loops are branchless on the thin stream: every edge
	// stores, but edges whose target is fat store into a shared trash slot
	// (index pos) and leave the cursor unmoved, so hub-bound edges —
	// frequent and unpredictably interleaved in power-law graphs — cost no
	// mispredicts.
	cur := make([]int32, n)
	for v := 0; v < n; v++ {
		if p.id[v] < k {
			cur[v] = pos
		} else {
			cur[v] = offs[v]
		}
	}
	ids := make([]int32, pos+1)

	// Hub sources first: their edges additionally feed the fat-fat lists.
	// Each hub's list length is its own fat-neighbor count (adjacency is
	// symmetric), so one cheap sequential counting scan sizes the table
	// exactly. The fat-fat branch in the scatter is rare among a hub's
	// mostly-thin neighbors, hence well predicted.
	fatOffs := make([]int32, k+1)
	for j := 0; j < k; j++ {
		cnt := int32(0)
		for _, v := range g.Neighbors(int(p.byID[j])) {
			cnt += int32(fat[v>>6] >> uint(v&63) & 1)
		}
		fatOffs[j+1] = fatOffs[j] + cnt
	}
	fcur := make([]int32, k)
	copy(fcur, fatOffs[:k])
	fatIDs := make([]int32, fatOffs[k])
	for i := 0; i < k; i++ {
		for _, v := range g.Neighbors(int(p.byID[i])) {
			c := cur[v]
			ids[c] = int32(i)
			cur[v] = c + 1 - int32(fat[v>>6]>>uint(v&63)&1)
			if fat[v>>6]&(1<<uint(v&63)) != 0 {
				j := p.id[v]
				fatIDs[fcur[j]] = int32(i)
				fcur[j]++
			}
		}
	}
	for i := k; i < n; i++ {
		for _, v := range g.Neighbors(int(p.byID[i])) {
			c := cur[v]
			ids[c] = int32(i)
			cur[v] = c + 1 - int32(fat[v>>6]>>uint(v&63)&1)
		}
	}
	p.nbrOffs, p.nbrIDs = offs, ids[:pos:pos]
	p.fatOffs, p.fatIDs = fatOffs, fatIDs
}

// layout prefix-sums word-aligned label offsets from the bit lengths, in the
// physical order the chosen layout dictates. LayoutID keeps the historical
// identity (label v at slot v); LayoutDegree walks ranks through byID, which
// packs the fat-set hubs — the labels skewed traffic actually touches — into
// the first contiguous pages of the slab, thin tail after.
func (p *slabPlan) layout(lay Layout) {
	n := len(p.bitLens)
	if lay == LayoutDegree {
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
	if len(ranges) == 1 {
		fill(ranges[0][0], ranges[0][1])
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
func encodeFatThinSlab(name string, g *graph.Graph, tau, workers int, lay Layout) (*Labeling, error) {
	if tau < 1 {
		return nil, fmt.Errorf("core: threshold must be >= 1, got %d", tau)
	}
	n := g.N()
	if n <= 1 {
		// Degenerate graphs take the legacy path (no body bits to plan, no
		// layout to choose).
		return encodeFatThinLegacy(name, g, tau)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	w := bitstr.WidthFor(uint64(n))
	header := 1 + w

	// Phase 1: size-plan. Fat/thin class and degree determine each label
	// exactly; the scan is O(n) arithmetic on top of the id assignment and
	// the thin-list transpose.
	planStart := time.Now()
	plan := newSlabPlan(g, tau, w)
	plan.buildNeighborLists(g)
	id, k := plan.id, plan.k
	for v := 0; v < n; v++ {
		if id[v] < k {
			plan.bitLens[v] = header + k
		} else {
			plan.bitLens[v] = header + g.Degree(v)*w
		}
	}
	plan.layout(lay)
	pipelineMetrics.PlanNs.ObserveDuration(time.Since(planStart))

	// Phase 2: parallel direct-to-arena fill.
	fillStart := time.Now()
	slab := make([]byte, int(plan.physOffs[n]>>3))
	runRanges(splitByWords(plan.physOffs, workers), func(lo, hi int) {
		fillFatThinSlab(plan, slab, lo, hi)
	})
	pipelineMetrics.FillNs.ObserveDuration(time.Since(fillStart))
	pipelineMetrics.Runs.Inc()
	pipelineMetrics.Labels.Add(int64(n))
	return NewPermutedArenaLabeling(name, slab, plan.bitLens, plan.order, &FatThinDecoder{n: n, w: w})
}

// fillFatThinSlab writes the labels of slab ranks [lo, hi) directly into the
// slab, with zero allocations. Both label bodies come straight from the
// plan's transposed lists — the graph is never consulted here.
func fillFatThinSlab(plan *slabPlan, slab []byte, lo, hi int) {
	sw := bitstr.NewSlabWriter(slab)
	id, k, w := plan.id, plan.k, plan.w
	for r := lo; r < hi; r++ {
		v := plan.vertexAt(r)
		off := plan.offs[v]
		sw.SeekBit(off)
		// The header — fat bit then the w-bit identifier — is one write: the
		// flag is simply bit w of a (1+w)-bit field.
		if vid := id[v]; vid < k { // fat: OR stores into the k-bit bitmap
			sw.WriteUint(1<<uint(w)|uint64(vid), 1+w)
			sw.Flush()
			base := off + int64(1+w)
			for _, i := range plan.fatIDs[plan.fatOffs[vid]:plan.fatOffs[vid+1]] {
				bitstr.SlabSetBit(slab, base+int64(i))
			}
		} else { // thin: packed pre-sorted neighbor ids, 64 bits per store
			sw.WriteUint(uint64(vid), 1+w)
			sw.WriteUints32(plan.nbrIDs[plan.nbrOffs[v]:plan.nbrOffs[v+1]], w)
			sw.Flush()
		}
	}
}

// encodeCompressedSlab is the pipeline encoder behind CompressedScheme. The
// size plan is heavier than the fat/thin one — choosing between fixed-width
// and δ-gap thin encodings requires the sorted neighbor ids — so phase 1 is
// parallelized too; only the prefix sum is sequential.
func encodeCompressedSlab(name string, g *graph.Graph, tau, workers int, lay Layout) (*Labeling, error) {
	if tau < 1 {
		return nil, fmt.Errorf("core: threshold must be >= 1, got %d", tau)
	}
	n := g.N()
	if n <= 1 {
		return encodeCompressedLegacy(name, g, tau)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	w := bitstr.WidthFor(uint64(n))
	header := 1 + w

	planStart := time.Now()
	plan := newSlabPlan(g, tau, w)
	plan.buildNeighborLists(g)
	id, k := plan.id, plan.k
	gapFlag := make([]bool, n)

	// Phase 1 (parallel): exact per-label sizes and encoding choices.
	planRanges := make([][2]int, 0, workers)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		planRanges = append(planRanges, [2]int{lo, hi})
	}
	runRanges(planRanges, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if id[v] < k {
				plan.bitLens[v] = header + k
				continue
			}
			nbr := plan.nbrIDs[plan.nbrOffs[v]:plan.nbrOffs[v+1]]
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
		}
	})
	plan.layout(lay)
	pipelineMetrics.PlanNs.ObserveDuration(time.Since(planStart))

	// Phase 2 (parallel): fill, over rank ranges as in fillFatThinSlab.
	fillStart := time.Now()
	slab := make([]byte, int(plan.physOffs[n]>>3))
	runRanges(splitByWords(plan.physOffs, workers), func(lo, hi int) {
		sw := bitstr.NewSlabWriter(slab)
		for r := lo; r < hi; r++ {
			v := plan.vertexAt(r)
			off := plan.offs[v]
			sw.SeekBit(off)
			if vid := id[v]; vid < k {
				sw.WriteUint(1<<uint(w)|uint64(vid), 1+w)
				sw.Flush()
				base := off + int64(header)
				for _, i := range plan.fatIDs[plan.fatOffs[vid]:plan.fatOffs[vid+1]] {
					bitstr.SlabSetBit(slab, base+int64(i))
				}
				continue
			}
			nbr := plan.nbrIDs[plan.nbrOffs[v]:plan.nbrOffs[v+1]]
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
		}
	})
	pipelineMetrics.FillNs.ObserveDuration(time.Since(fillStart))
	pipelineMetrics.Runs.Inc()
	pipelineMetrics.Labels.Add(int64(n))
	return NewPermutedArenaLabeling(name, slab, plan.bitLens, plan.order, &CompressedDecoder{n: n, w: w})
}
