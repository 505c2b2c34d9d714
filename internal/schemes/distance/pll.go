package distance

import (
	"fmt"

	"repro/internal/bitstr"
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

// Encode builds pruned landmark labels for g.
//
// Label layout (w = ceil(log2 n), dw sized to the largest stored distance):
//
//	[own id: w][entry count: w][rank: w, dist: dw] × count
//
// Entries are sorted by landmark rank, enabling merge-scan queries. The
// pruned BFS sweep itself is shared with the slab encoder (pllEntries,
// slab.go), so the legacy and arena paths label from identical entry lists.
func (s PLLScheme) Encode(g *graph.Graph) (*PLLLabeling, error) {
	entries, maxDist, _ := pllEntries(g)
	return pllLegacyLabeling(entries, maxDist)
}

// pllLegacyLabeling packs per-vertex (landmark rank, distance) lists into
// legacy labels. The merge-scan decoder needs strictly increasing ranks;
// the pruned sweep emits them that way (one entry per landmark, in rank
// order), so a list that is not is reported, not repaired.
func pllLegacyLabeling(entries [][]core.DistEntry, maxDist int32) (*PLLLabeling, error) {
	n := len(entries)
	w := bitstr.WidthFor(uint64(n))
	if w == 0 {
		w = 1
	}
	wCnt := bitstr.WidthFor(uint64(n) + 1) // entry counts range over [0, n]
	if wCnt == 0 {
		wCnt = 1
	}
	dw := bitstr.WidthFor(uint64(maxDist) + 2)
	if dw == 0 {
		dw = 1
	}
	labels := make([]bitstr.String, n)
	var b bitstr.Builder
	for v := 0; v < n; v++ {
		b.Reset()
		b.AppendUint(uint64(v), w)
		b.AppendUint(uint64(len(entries[v])), wCnt)
		for i, e := range entries[v] {
			if i > 0 && e.ID <= entries[v][i-1].ID {
				return nil, fmt.Errorf("distance: pll label %d: entry %d has rank %d after rank %d",
					v, i, e.ID, entries[v][i-1].ID)
			}
			b.AppendUint(uint64(e.ID), w)
			b.AppendUint(uint64(e.D), dw)
		}
		labels[v] = b.String()
	}
	return &PLLLabeling{labels: labels, dec: &PLLDecoder{n: n, w: w, wCnt: wCnt, dw: dw}}, nil
}

// PLLLabeling holds pruned landmark labels.
type PLLLabeling struct {
	labels []bitstr.String
	dec    *PLLDecoder
}

// N returns the number of labeled vertices.
func (l *PLLLabeling) N() int { return len(l.labels) }

// Label returns vertex v's label.
func (l *PLLLabeling) Label(v int) (bitstr.String, error) {
	if v < 0 || v >= len(l.labels) {
		return bitstr.String{}, fmt.Errorf("distance: vertex %d of %d", v, len(l.labels))
	}
	return l.labels[v], nil
}

// DistLabels answers a query directly from two raw labels.
func (l *PLLLabeling) DistLabels(a, b bitstr.String) (int, error) {
	return l.dec.Dist(a, b)
}

// Dist answers an exact distance query from the two labels
// (graph.Unreachable for disconnected pairs).
func (l *PLLLabeling) Dist(u, v int) (int, error) {
	lu, err := l.Label(u)
	if err != nil {
		return 0, err
	}
	lv, err := l.Label(v)
	if err != nil {
		return 0, err
	}
	return l.dec.Dist(lu, lv)
}

// Stats reports label-size statistics in bits.
func (l *PLLLabeling) Stats() (min, max int, mean float64) {
	if len(l.labels) == 0 {
		return 0, 0, 0
	}
	min = l.labels[0].Len()
	var total int64
	for _, s := range l.labels {
		n := s.Len()
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
		total += int64(n)
	}
	return min, max, float64(total) / float64(len(l.labels))
}

// PLLDecoder answers exact distance queries over PLL labels.
type PLLDecoder struct {
	n, w, wCnt, dw int
}

type pllParsed struct {
	id    uint64
	count int
	body  int
	s     bitstr.String
}

func (d *PLLDecoder) parse(s bitstr.String) (pllParsed, error) {
	r := bitstr.NewReader(s)
	id, err := r.ReadUint(d.w)
	if err != nil {
		return pllParsed{}, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	cnt, err := r.ReadUint(d.wCnt)
	if err != nil {
		return pllParsed{}, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	body := d.w + d.wCnt
	if want := body + int(cnt)*(d.w+d.dw); s.Len() != want {
		return pllParsed{}, fmt.Errorf("%w: pll label of %d bits, want %d", ErrBadLabel, s.Len(), want)
	}
	return pllParsed{id: id, count: int(cnt), body: body, s: s}, nil
}

// Dist merges the two sorted landmark lists and returns the minimum summed
// distance (graph.Unreachable when the lists share no landmark).
func (d *PLLDecoder) Dist(a, b bitstr.String) (int, error) {
	pa, err := d.parse(a)
	if err != nil {
		return 0, err
	}
	pb, err := d.parse(b)
	if err != nil {
		return 0, err
	}
	if pa.id == pb.id {
		return 0, nil
	}
	ra := bitstr.NewReader(pa.s)
	rb := bitstr.NewReader(pb.s)
	if err := ra.Seek(pa.body); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	if err := rb.Seek(pb.body); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	const inf = 1 << 30
	best := inf
	i, j := 0, 0
	var (
		rankA, distA uint64
		rankB, distB uint64
		haveA, haveB bool
	)
	for i < pa.count || j < pb.count {
		if !haveA && i < pa.count {
			if rankA, err = ra.ReadUint(d.w); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrBadLabel, err)
			}
			if distA, err = ra.ReadUint(d.dw); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrBadLabel, err)
			}
			haveA = true
		}
		if !haveB && j < pb.count {
			if rankB, err = rb.ReadUint(d.w); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrBadLabel, err)
			}
			if distB, err = rb.ReadUint(d.dw); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrBadLabel, err)
			}
			haveB = true
		}
		switch {
		case !haveA:
			j = pb.count // A exhausted: no more common landmarks
		case !haveB:
			i = pa.count
		case rankA == rankB:
			if s := int(distA + distB); s < best {
				best = s
			}
			haveA, haveB = false, false
			i++
			j++
		case rankA < rankB:
			haveA = false
			i++
		default:
			haveB = false
			j++
		}
	}
	if best == inf {
		return graph.Unreachable, nil
	}
	return best, nil
}
