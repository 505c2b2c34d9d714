package core

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// CompressedScheme is the distribution-aware refinement the paper's future
// work hints at ("refinements of our labeling scheme that utilize knowledge
// about such distributions"): the fat/thin layout of Theorems 3/4 with the
// thin neighbor list stored in the cheaper of two encodings, chosen per
// label by a one-bit flag:
//
//	thin: [0][own id: w][0][neighbor ids: deg·w]                (fixed width)
//	thin: [0][own id: w][1][δ(gap₀+1)][δ(gap₁+1)]...            (sorted gaps)
//	fat:  [1][own id: w][bitmap over fat ids: k bits]
//
// Gap coding wins exactly when a vertex's neighbors concentrate on small
// identifiers — i.e. on the hubs, which receive the smallest ids. The win
// therefore grows as α falls (heavier hubs); for light-tailed inputs the
// flag keeps every label within one bit of the fixed-width layout. This
// trade-off is measured by experiment E15. Decoding remains a single scan.
type CompressedScheme struct {
	inner *FatThinScheme
}

var _ Scheme = (*CompressedScheme)(nil)

// NewCompressedScheme wraps any fat/thin threshold rule with δ-coded thin
// labels.
func NewCompressedScheme(threshold *FatThinScheme) *CompressedScheme {
	return &CompressedScheme{inner: threshold}
}

// Name implements Scheme.
func (s *CompressedScheme) Name() string { return "compressed+" + s.inner.Name() }

// Threshold exposes the wrapped threshold rule.
func (s *CompressedScheme) Threshold(g *graph.Graph) (int, error) { return s.inner.threshold(g) }

// Encode implements Scheme, through the slab pipeline (see pipeline.go):
// the returned labeling is born compact, written straight into its
// id-ordered slab.
func (s *CompressedScheme) Encode(g *graph.Graph) (*Labeling, error) {
	tau, err := s.inner.threshold(g)
	if err != nil {
		return nil, err
	}
	return encodeCompressedSlab(s.Name(), g, tau, 1)
}

// CompressedDecoder answers adjacency queries over compressed fat/thin
// labels; like FatThinDecoder it depends only on n.
type CompressedDecoder struct {
	n int
	w int
}

var _ AdjacencyDecoder = (*CompressedDecoder)(nil)

// NewCompressedDecoder returns the decoder for n-vertex compressed
// labelings.
func NewCompressedDecoder(n int) *CompressedDecoder {
	return &CompressedDecoder{n: n, w: bitstr.WidthFor(uint64(n))}
}

// Adjacent implements AdjacencyDecoder.
func (d *CompressedDecoder) Adjacent(a, b bitstr.String) (bool, error) {
	pa, err := d.parse(a)
	if err != nil {
		return false, err
	}
	pb, err := d.parse(b)
	if err != nil {
		return false, err
	}
	if pa.id == pb.id {
		return false, nil
	}
	switch {
	case !pa.fat:
		return d.thinContains(pa, pb.id)
	case !pb.fat:
		return d.thinContains(pb, pa.id)
	default:
		k := pa.s.Len() - pa.body
		if pb.id >= uint64(k) {
			return false, fmt.Errorf("%w: fat id %d outside vector of %d bits", ErrBadLabel, pb.id, k)
		}
		bit, err := pa.s.Bit(pa.body + int(pb.id))
		if err != nil {
			return false, fmt.Errorf("%w: %v", ErrBadLabel, err)
		}
		return bit, nil
	}
}

func (d *CompressedDecoder) parse(s bitstr.String) (parsedLabel, error) {
	r := bitstr.NewReader(s)
	fat, err := r.ReadBit()
	if err != nil {
		return parsedLabel{}, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	id, err := r.ReadUint(d.w)
	if err != nil {
		return parsedLabel{}, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	return parsedLabel{fat: fat, id: id, body: 1 + d.w, s: s}, nil
}

// thinContains reads the encoding flag and scans the neighbor list in
// whichever form the encoder chose.
func (d *CompressedDecoder) thinContains(p parsedLabel, target uint64) (bool, error) {
	r := bitstr.NewReader(p.s)
	if err := r.Seek(p.body); err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	gapEncoded, err := r.ReadBit()
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	if !gapEncoded {
		if d.w == 0 {
			return false, nil
		}
		if r.Remaining()%d.w != 0 {
			return false, fmt.Errorf("%w: fixed thin body of %d bits", ErrBadLabel, r.Remaining())
		}
		for r.Remaining() >= d.w {
			v, err := r.ReadUint(d.w)
			if err != nil {
				return false, fmt.Errorf("%w: %v", ErrBadLabel, err)
			}
			if v == target {
				return true, nil
			}
		}
		return false, nil
	}
	cur := uint64(0)
	first := true
	for r.Remaining() > 0 {
		gap, err := r.ReadDelta0()
		if err != nil {
			return false, fmt.Errorf("%w: %v", ErrBadLabel, err)
		}
		if first {
			cur = gap
			first = false
		} else {
			cur += gap
		}
		if cur == target {
			return true, nil
		}
		if cur > target {
			return false, nil // list is sorted: early exit
		}
	}
	return false, nil
}
