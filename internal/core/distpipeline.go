package core

import (
	"fmt"

	"repro/internal/bitstr"
)

// Distance slab encode pipeline
//
// The distance schemes (PLL's 2-hop cover and Lemma 7's bounded-distance
// labels) run through the same slab pipeline as the adjacency encoders
// (encodeSlab, pipeline.go): each encoder here is a size rule, which also
// validates its entries, and a label writer. The graph work (pruned BFS
// sweeps, bounded BFS tables) stays in internal/schemes/distance, which hands
// the encoders flat per-vertex entry lists; core owns only widths, offsets
// and bit stores, so it never imports a scheme package.
//
// Two slab label layouts, selected by DistKind:
//
//	pll    [own id: w][entry count: wCnt]
//	       then per entry, sorted by hub rank:
//	       [delta0(rank gap)][dist: dw]
//	       w = max(ceil(log2 n), 1), wCnt = max(ceil(log2 (n+1)), 1); the
//	       rank gaps use the δ-gap convention of the compressed adjacency
//	       scheme (gap 0 is the first rank itself, later gaps are strictly
//	       positive differences), dw is fixed-width.
//
//	bdist  [fat bit][own id: w][dist to fat hub i: dw] × nFat
//	       then, thin vertices only, entries sorted by vertex id:
//	       [thin id: w][dist: dw]
//	       w = ceil(log2 n), dw = ceil(log2 (f+2)) — the label layout
//	       Lemma 7's own decoder, distance.Decoder, reads.
//
// Answers from a DistEngine over either slab are pinned to BFS, and a bdist
// engine's to distance.Decoder over the same slab, by the distance package's
// tests and the conformance matrix.

// DistEntry is one (id, dist) pair of a distance label body: a PLL
// (landmark rank, distance) entry, or a Lemma 7 thin-list (vertex id,
// distance) entry. Lists handed to the pipeline are sorted by ID ascending.
type DistEntry struct {
	ID int32
	D  int32
}

// DistKind selects a distance slab layout.
type DistKind uint8

const (
	// DistPLL is the pruned-landmark 2-hop-cover layout (exact distances).
	DistPLL DistKind = 1
	// DistBounded is the Lemma 7 f(n)-bounded layout.
	DistBounded DistKind = 2
)

// String names the kind as the labelstore scheme= record value.
func (k DistKind) String() string {
	switch k {
	case DistPLL:
		return "pll"
	case DistBounded:
		return "bdist"
	}
	return fmt.Sprintf("DistKind(%d)", uint8(k))
}

// DistParams carries the family parameters a DistEngine needs beyond the
// slab itself; they travel in the labelstore header next to the scheme=
// record kind.
type DistParams struct {
	Kind DistKind
	// DW is the fixed distance field width in bits (PLL: sized to the
	// largest stored distance; bdist: ceil(log2 (F+2)), derived).
	DW int
	// F is the bdist distance bound: queries up to F hops are exact, beyond
	// is reported as distance.Beyond.
	F int
	// NFat is the bdist fat-table width (number of fat hubs).
	NFat int
}

// Validate checks p against a labeling of n labels: a known kind, DW in
// 1..32; for DistPLL no bounded-distance fields, for DistBounded F >= 1,
// DW = ceil(log2 (F+2)) and 0 <= NFat <= n. It is the one rule both
// NewDistEngineFromArena and labelstore apply; each wraps the error in its
// own class.
func (p DistParams) Validate(n int) error {
	if p.Kind != DistPLL && p.Kind != DistBounded {
		return fmt.Errorf("unknown distance scheme kind %d", uint8(p.Kind))
	}
	if p.DW < 1 || p.DW > 32 {
		return fmt.Errorf("%s distance width %d (want 1..32)", p.Kind, p.DW)
	}
	if p.Kind == DistPLL {
		if p.F != 0 || p.NFat != 0 {
			return fmt.Errorf("pll carries bounded-distance params f=%d nfat=%d", p.F, p.NFat)
		}
		return nil
	}
	if p.F < 1 {
		return fmt.Errorf("bdist distance bound f=%d (want >= 1)", p.F)
	}
	if want := bitstr.WidthFor(uint64(p.F) + 2); p.DW != want {
		return fmt.Errorf("bdist distance width %d, bound f=%d requires %d", p.DW, p.F, want)
	}
	if p.NFat < 0 || p.NFat > n {
		return fmt.Errorf("bdist declares %d fat hubs over %d labels", p.NFat, n)
	}
	return nil
}

// DistArena is a pipeline-encoded distance labeling: one byte-packed slab,
// per-vertex bit lengths, an optional physical layout permutation (rank r
// holds vertex Order[r]'s label; nil is the identity), and the family
// parameters. It is what NewDistEngineFromArena adopts zero-copy and what
// labelstore stores as its body blob.
type DistArena struct {
	Slab    []byte
	BitLens []int
	Order   []int32
	Params  DistParams
}

// N returns the number of labeled vertices.
func (a *DistArena) N() int { return len(a.BitLens) }

// pllWidths returns the PLL label field widths for an n-vertex graph with
// maximum stored distance maxDist.
func pllWidths(n int, maxDist int32) (w, wCnt, dw int) {
	w = bitstr.WidthFor(uint64(n))
	if w == 0 {
		w = 1
	}
	wCnt = bitstr.WidthFor(uint64(n) + 1)
	if wCnt == 0 {
		wCnt = 1
	}
	dw = bitstr.WidthFor(uint64(maxDist) + 2)
	if dw == 0 {
		dw = 1
	}
	return w, wCnt, dw
}

// EncodePLLArena writes per-vertex PLL entry lists (sorted by hub rank,
// exactly as the pruned BFS emits them) into one byte-packed slab. maxDist
// is the largest entry distance (it sizes the fixed-width distance field).
// order, when non-nil, is the physical layout permutation (rank→vertex),
// refused unless it is one; workers <= 0 selects GOMAXPROCS.
func EncodePLLArena(entries [][]DistEntry, maxDist int32, order []int32, workers int) (*DistArena, error) {
	n := len(entries)
	if n == 0 {
		return nil, fmt.Errorf("core: pll encode of zero vertices")
	}
	w, wCnt, dw := pllWidths(n, maxDist)
	// A label is its header plus the δ-coded rank gaps and fixed-width
	// distances of its entries.
	a, err := encodeSlab(n, workers, order, func(bitLens []int, lo, hi int) error {
		for v := lo; v < hi; v++ {
			bits := w + wCnt
			prev := uint64(0)
			for i, e := range entries[v] {
				if e.ID < 0 || int(e.ID) >= n || (i > 0 && uint64(e.ID) <= prev) ||
					e.D < 0 || e.D > maxDist {
					return fmt.Errorf("core: pll label %d entry %d: rank %d dist %d (n=%d maxDist=%d)",
						v, i, e.ID, e.D, n, maxDist)
				}
				gap := uint64(e.ID) - prev
				if i == 0 {
					gap = uint64(e.ID)
				}
				bits += bitstr.DeltaLen(gap+1) + dw
				prev = uint64(e.ID)
			}
			bitLens[v] = bits
		}
		return nil
	}, func(a *slabArena, sw *bitstr.SlabWriter, lo, hi int) {
		for r := lo; r < hi; r++ {
			v := vertexAt(a.order, r)
			sw.SeekBit(a.offs[v])
			sw.WriteUint(uint64(v), w)
			sw.WriteUint(uint64(len(entries[v])), wCnt)
			prev := uint64(0)
			for i, e := range entries[v] {
				gap := uint64(e.ID) - prev
				if i == 0 {
					gap = uint64(e.ID)
				}
				sw.WriteDelta0(gap)
				sw.WriteUint(uint64(e.D), dw)
				prev = uint64(e.ID)
			}
			sw.Flush()
		}
	})
	if err != nil {
		return nil, err
	}
	return &DistArena{Slab: a.slab, BitLens: a.bitLens, Order: a.order,
		Params: DistParams{Kind: DistPLL, DW: dw}}, nil
}

// EncodeBoundedArena writes Lemma 7 bounded-distance labels into one
// byte-packed slab, in the layout distance.Decoder reads. fat flags each
// vertex's class; fatDist[v] is v's full fat table (one dw-wide entry per
// hub, sentinel f+1 for "beyond"); thin[v] is thin vertex v's (id, dist)
// list sorted by id ascending (ignored for fat vertices). order and workers
// as in EncodePLLArena.
func EncodeBoundedArena(fat []bool, fatDist [][]int32, thin [][]DistEntry, f int, order []int32, workers int) (*DistArena, error) {
	n := len(fat)
	if n == 0 {
		return nil, fmt.Errorf("core: bounded-distance encode of zero vertices")
	}
	if f < 1 {
		return nil, fmt.Errorf("core: distance bound must be >= 1, got %d", f)
	}
	if len(fatDist) != n || len(thin) != n {
		return nil, fmt.Errorf("core: bounded-distance inputs of %d/%d/%d vertices", n, len(fatDist), len(thin))
	}
	nFat := len(fatDist[0])
	w := bitstr.WidthFor(uint64(n))
	dw := bitstr.WidthFor(uint64(f) + 2)
	header := 1 + w + nFat*dw
	// Sizes are pure arithmetic on the input shapes.
	a, err := encodeSlab(n, workers, order, func(bitLens []int, lo, hi int) error {
		for v := lo; v < hi; v++ {
			if len(fatDist[v]) != nFat {
				return fmt.Errorf("core: bdist label %d: fat table of %d entries, want %d", v, len(fatDist[v]), nFat)
			}
			bits := header
			if !fat[v] {
				prev := int32(-1)
				for i, e := range thin[v] {
					if e.ID < 0 || int(e.ID) >= n || e.ID <= prev || e.D < 0 || int(e.D) > f+1 {
						return fmt.Errorf("core: bdist label %d thin entry %d: id %d dist %d (n=%d f=%d)",
							v, i, e.ID, e.D, n, f)
					}
					prev = e.ID
				}
				bits += len(thin[v]) * (w + dw)
			}
			bitLens[v] = bits
		}
		return nil
	}, func(a *slabArena, sw *bitstr.SlabWriter, lo, hi int) {
		for r := lo; r < hi; r++ {
			v := vertexAt(a.order, r)
			sw.SeekBit(a.offs[v])
			// Fat bit and w-bit identifier in one store, as in the adjacency
			// fill.
			hdr := uint64(v)
			if fat[v] {
				hdr |= 1 << uint(w)
			}
			sw.WriteUint(hdr, 1+w)
			sw.WriteUints32(fatDist[v], dw)
			if !fat[v] {
				for _, e := range thin[v] {
					sw.WriteUint(uint64(e.ID), w)
					sw.WriteUint(uint64(e.D), dw)
				}
			}
			sw.Flush()
		}
	})
	if err != nil {
		return nil, err
	}
	return &DistArena{Slab: a.slab, BitLens: a.bitLens, Order: a.order,
		Params: DistParams{Kind: DistBounded, DW: dw, F: f, NFat: nFat}}, nil
}
