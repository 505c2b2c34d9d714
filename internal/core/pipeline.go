package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// Slab encode pipeline
//
// Every label layout this repository encodes fixes each label's exact bit
// length before a single bit is written: the fat/thin labels of Theorems 3/4
// (a fat label is 1 + w + k bits, a thin label 1 + w + e·w, w = ceil(log2 n),
// k = number of fat vertices, e = the entries the label lists: its degree
// under ThinEdgesBoth, its neighbors of smaller identifier under
// ThinEdgesOnce — see fatthin.go), their δ-gap compressed variant, and the
// two distance layouts of distpipeline.go. One function, encodeSlab, exploits
// that for all four encoders in two phases:
//
//  1. size-plan: each encoder's size rule computes the bit lengths of a range
//     of vertices, in parallel; the one byte-aligned prefix sum
//     (slabArena.layout) then places every label in one shared slab, back
//     to back — one allocation for the entire labeling;
//  2. fill: each encoder's writer writes the labels of a range of slab ranks
//     in place, in parallel across word-balanced rank ranges. Two ranges may
//     meet inside a 64-bit word, never inside a byte, and a writer stores
//     only its own labels' bytes, so the ranges need no merge. Fat bitmaps
//     are built by OR stores at computed bit positions (no intermediate
//     Vector, no copy), thin neighbor lists — gathered and sorted a block of
//     ranks at a time (eachLabel) — by packed 64-bit word stores through a
//     bitstr.SlabWriter.
//
// The encoders pass encodeSlab only what differs between them, and only at
// range granularity: no per-label indirect call or allocation is added to
// the fill. The result is a slabArena — the (slab, bitLens, order)
// description every store, shard split and engine takes — which a Labeling
// holds, NewQueryEngine adopts zero-copy, and labelstore writes as a single
// body blob. The labels are bit-for-bit identical to those of the
// one-Builder-per-label reference encoders kept in legacy_test.go
// (TestPipelineMatchesLegacy*).
//
// The fat/thin and distance encoders place labels in identifier order —
// descending degree, fat hubs first (layout.go) — so the slab carries a
// rank→vertex permutation, while every label keeps its exact bits and its
// vertex-indexed offset.

// slabArena is a byte-packed slab with its description: bitLens[v] is
// label v's length, order (nil for vertex order) says the label at
// slab rank r is label order[r], and offs[v] is the bit offset of label v's
// start — the prefix sum's own table, so no walk rebuilds it.
type slabArena struct {
	slab    []byte
	bitLens []int
	order   []int32
	offs    []int64
}

// vertexAt maps slab rank r to the label stored there under order.
func vertexAt(order []int32, r int) int {
	if order == nil {
		return r
	}
	return int(order[r])
}

// layout is the one byte-aligned prefix sum of the slab path: it sets offs
// from bitLens in the physical order, and returns the rank-indexed offsets
// (monotonic — what splitByWords reads) with the labels' end in bits at the
// end; the slab is that many bytes, its tail padded to a whole word
// (bitstr.SlabSize). It refuses an order that is not a permutation of the
// labels, as every reader's bitstr.SlabWalk does: a repeated entry would
// leave one label unwritten and write another twice.
func (a *slabArena) layout() ([]int64, error) {
	n := len(a.bitLens)
	if a.order != nil && len(a.order) != n {
		return nil, fmt.Errorf("core: layout permutation of %d entries over %d labels", len(a.order), n)
	}
	physOffs := make([]int64, n+1)
	var end int64
	for r := 0; r < n; r++ {
		v := vertexAt(a.order, r)
		if uint(v) >= uint(n) {
			return nil, fmt.Errorf("core: layout permutation entry %d = %d of %d labels", r, v, n)
		}
		physOffs[r] = end
		end += int64(bitstr.SlabLabelBytes(a.bitLens[v])) << 3
	}
	physOffs[n] = end
	if a.order == nil {
		a.offs = physOffs[:n]
		return physOffs, nil
	}
	a.offs = make([]int64, n)
	for v := range a.offs {
		a.offs[v] = -1 // not placed yet
	}
	for r, v := range a.order {
		if a.offs[v] >= 0 {
			return nil, fmt.Errorf("core: layout permutation repeats label %d at rank %d", v, r)
		}
		a.offs[v] = physOffs[r]
	}
	return physOffs, nil
}

// encodeSlab is the slab pipeline under every encoder. size sets bitLens[v]
// for each vertex v of a range [lo, hi); write fills the labels of slab ranks
// [lo, hi) of a, through sw. Both run on up to workers goroutines (<= 0
// selects GOMAXPROCS), never more than one per label; size's error, if any,
// is the lowest range's. order is the physical layout (nil = vertex order).
func encodeSlab(n, workers int, order []int32,
	size func(bitLens []int, lo, hi int) error,
	write func(a *slabArena, sw *bitstr.SlabWriter, lo, hi int)) (*slabArena, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n)) // n = 0 plans and fills nothing
	a := &slabArena{bitLens: make([]int, n), order: order}
	if err := runRangesErr(evenRanges(n, workers), func(lo, hi int) error {
		return size(a.bitLens, lo, hi)
	}); err != nil {
		return nil, err
	}
	physOffs, err := a.layout()
	if err != nil {
		return nil, err
	}
	a.slab = make([]byte, bitstr.SlabSize(int(physOffs[n]>>3)))
	_ = runRangesErr(splitByWords(physOffs, workers), func(lo, hi int) error { // writers cannot fail
		write(a, bitstr.NewSlabWriter(a.slab), lo, hi)
		return nil
	})
	return a, nil
}

// evenRanges chunks 0..n-1 into up to workers contiguous ranges of equal
// length: the split of a parallel phase whose items cost about the same.
func evenRanges(n, workers int) [][2]int {
	ranges := make([][2]int, 0, workers)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		ranges = append(ranges, [2]int{lo, min(lo+chunk, n)})
	}
	return ranges
}

// splitByWords partitions slab ranks into up to `workers` contiguous ranges
// of roughly equal slab footprint, so one hub-heavy range cannot serialize
// the fill phase. offs must be the monotonic rank-indexed offsets layout
// returns; under a permuted layout the ranges are rank ranges, which keeps
// each worker's stores contiguous in the slab.
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

// runRangesErr runs fn over the ranges, one goroutine per range beyond the
// first, caller-run one (none at all for no ranges, the empty graph's).
// Every range reports into its own slot, so the workers share no variable,
// and the lowest range's error is returned — the same error whatever the
// scheduling.
func runRangesErr(ranges [][2]int, fn func(lo, hi int) error) error {
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := 1; i < len(ranges); i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs[slot] = fn(ranges[slot][0], ranges[slot][1])
		}(i)
	}
	if len(ranges) > 0 {
		errs[0] = fn(ranges[0][0], ranges[0][1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// slabPlan holds the fat/thin identifier tables both adjacency encoders
// size and fill from.
type slabPlan struct {
	w, k int
	// once is the ThinEdgesOnce choice: thin bodies hold only the neighbors
	// of smaller identifier. thinEntries and eachLabel — the size plan and the
	// gather — are the only code that asks.
	once bool
	id   []int32
	// byID[i] is the vertex whose identifier is i (ids are a permutation);
	// fatBits[v>>6] bit v&63 is set iff id[v] < k — the L1-resident fat test
	// of the bitmap fill.
	byID    []int32
	fatBits []uint64
}

// newSlabPlan builds the identifier tables for an n-vertex plan.
func newSlabPlan(g *graph.Graph, tau, w int) *slabPlan {
	id, k := assignFatThinIDs(g, tau)
	n := g.N()
	p := &slabPlan{w: w, k: k, id: make([]int32, n)}
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

// order returns the slab order, identifier order: byID itself, since
// identifiers are assigned in descending-degree order (fat hubs 0..k-1, then
// the thin tail), so the layout costs nothing beyond the plan's tables. One
// slot or none has nothing to reorder.
func (p *slabPlan) order() []int32 {
	if len(p.byID) > 1 {
		return p.byID
	}
	return nil
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

// eachLabel calls visit(v, nbr) for the vertex at every slab rank in [lo, hi)
// under order (nil: vertex order, as the size plans walk), in rank order: nbr
// is a thin vertex's label body — the identifiers it lists, in ascending
// order — and empty for a fat one, and is only valid during the call.
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
func (p *slabPlan) eachLabel(g *graph.Graph, order []int32, lo, hi int, visit func(v int, nbr []int32)) {
	const block = 256
	var (
		ids  []int32
		ends [block]int
	)
	for ; lo < hi; lo += block {
		blockHi := min(lo+block, hi)
		ids = ids[:0]
		for r := lo; r < blockHi; r++ {
			if v := vertexAt(order, r); int(p.id[v]) >= p.k {
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
			visit(vertexAt(order, r), nbr)
			from = ends[r-lo]
		}
	}
}

// writeFat writes fat vertex v's label at slab bit off: the header — fat
// bit then the w-bit identifier — as one write (the flag is simply bit w of a
// (1+w)-bit field), then, by OR stores into the k-bit bitmap after it, the
// bit of every fat neighbor's identifier.
func (p *slabPlan) writeFat(g *graph.Graph, sw *bitstr.SlabWriter, slab []byte, v int, off int64) {
	sw.SeekBit(off)
	sw.WriteUint(1<<uint(p.w)|uint64(p.id[v]), 1+p.w)
	sw.Flush()
	base := off + int64(1+p.w)
	for _, u := range g.Neighbors(v) {
		if p.fatBits[u>>6]&(1<<uint(u&63)) != 0 {
			bitstr.SlabSetBit(slab, base+int64(p.id[u]))
		}
	}
}

// encodeFatThinSlab is the pipeline encoder behind FatThinScheme.Encode and
// EncodeParallel. workers <= 0 selects GOMAXPROCS; the labeling it returns is
// in identifier order (slabPlan.order).
func encodeFatThinSlab(name string, g *graph.Graph, tau, workers int, thin ThinEdges) (*Labeling, error) {
	if tau < 1 {
		return nil, fmt.Errorf("core: threshold must be >= 1, got %d", tau)
	}
	n := g.N()
	w := bitstr.WidthFor(uint64(n))
	header := 1 + w
	plan := newSlabPlan(g, tau, w)
	plan.once = thin == ThinEdgesOnce
	id, k := plan.id, int32(plan.k)
	// Fat/thin class and entry count determine each label exactly. Counting a
	// once-layout label's entries reads its neighbors' identifiers, which is
	// why the size rule runs in parallel too.
	a, err := encodeSlab(n, workers, plan.order(), func(bitLens []int, lo, hi int) error {
		for v := lo; v < hi; v++ {
			if id[v] < k {
				bitLens[v] = header + plan.k
			} else {
				bitLens[v] = header + plan.thinEntries(g, v)*w
			}
		}
		return nil
	}, func(a *slabArena, sw *bitstr.SlabWriter, lo, hi int) {
		fillFatThinSlab(plan, g, a, sw, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	return &Labeling{scheme: name, decoder: &FatThinDecoder{n: n, w: w}, slabArena: *a}, nil
}

// fillFatThinSlab writes the labels of slab ranks [lo, hi) directly into the
// slab; what it allocates is eachLabel's scratch, once per range.
func fillFatThinSlab(plan *slabPlan, g *graph.Graph, a *slabArena, sw *bitstr.SlabWriter, lo, hi int) {
	id, k, w := plan.id, int32(plan.k), plan.w
	plan.eachLabel(g, a.order, lo, hi, func(v int, nbr []int32) {
		if vid := id[v]; vid < k {
			plan.writeFat(g, sw, a.slab, v, a.offs[v])
		} else { // thin: packed sorted neighbor ids, 64 bits per store
			sw.SeekBit(a.offs[v])
			sw.WriteUint(uint64(vid), 1+w)
			sw.WriteUints32(nbr, w)
			sw.Flush()
		}
	})
}

// encodeCompressedSlab is the pipeline encoder behind CompressedScheme. Its
// size rule is heavier than the fat/thin one — choosing between fixed-width
// and δ-gap thin encodings requires the sorted neighbor ids, which it builds
// as the fill does. Its slab is in vertex order: no reader of a gap-coded
// label needs the degree order's locality (layout.go).
func encodeCompressedSlab(name string, g *graph.Graph, tau, workers int) (*Labeling, error) {
	if tau < 1 {
		return nil, fmt.Errorf("core: threshold must be >= 1, got %d", tau)
	}
	n := g.N()
	w := bitstr.WidthFor(uint64(n))
	header := 1 + w
	plan := newSlabPlan(g, tau, w)
	id, k := plan.id, int32(plan.k)
	gapFlag := make([]bool, n)
	a, err := encodeSlab(n, workers, nil, func(bitLens []int, lo, hi int) error {
		plan.eachLabel(g, nil, lo, hi, func(v int, nbr []int32) {
			if id[v] < k {
				bitLens[v] = header + plan.k
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
				bitLens[v] = header + 1 + gapBits
			} else {
				bitLens[v] = header + 1 + fixed
			}
		})
		return nil
	}, func(a *slabArena, sw *bitstr.SlabWriter, lo, hi int) {
		plan.eachLabel(g, a.order, lo, hi, func(v int, nbr []int32) {
			if id[v] < k {
				plan.writeFat(g, sw, a.slab, v, a.offs[v])
				return
			}
			sw.SeekBit(a.offs[v])
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
	if err != nil {
		return nil, err
	}
	return &Labeling{scheme: name, decoder: &CompressedDecoder{n: n, w: w}, slabArena: *a}, nil
}
