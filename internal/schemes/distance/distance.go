// Package distance implements the f(n)-bounded distance labeling scheme of
// Lemma 7 and an exact distance-vector baseline.
//
// In the Lemma 7 scheme a vertex is fat when its degree is at least
// n^(1/(α-1+f)). Every label carries (i) a table of hop distances (capped at
// f) to every fat vertex and (ii), for thin vertices, a table of distances
// to the thin vertices reachable within f hops through thin vertices only.
// The decoder answers dist(u,v) exactly whenever it is at most f, and
// reports "more than f" otherwise — the regime the paper targets, since
// power-law graphs have Θ(log n) diameter (Chung–Lu).
package distance

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/powerlaw"
)

// ErrBadLabel is returned when a distance label cannot be parsed.
var ErrBadLabel = errors.New("distance: malformed label")

// Beyond is returned by queries whose true distance exceeds the scheme's
// bound f (including disconnected pairs).
const Beyond = -1

// Scheme is the Lemma 7 f(n)-distance labeling scheme for P_h graphs.
type Scheme struct {
	// Alpha is the power-law exponent used for the fat threshold.
	Alpha float64
	// F is the distance bound f(n); queries up to F hops are exact.
	F int
}

// Name identifies the scheme in experiment output.
func (s Scheme) Name() string { return fmt.Sprintf("dist-f%d(α=%g)", s.F, s.Alpha) }

// Threshold returns the fat-degree threshold the scheme uses on an n-vertex
// graph.
func (s Scheme) Threshold(n int) (int, error) {
	p, err := powerlaw.NewParams(s.Alpha, max(n, 1))
	if err != nil {
		return 0, err
	}
	return p.DistanceFatThreshold(s.F), nil
}

// EncodeArena labels every vertex of g into one slab arena, which
// core.NewDistEngine serves and labelstore stores, its bodies in descending
// degree order, fat hubs first (core.Layout); the Layout argument is ignored,
// as in PLLScheme.EncodeArena.
//
// Label layout (w = ceil(log2 n), dw = ceil(log2(f+2)), F fat vertices):
//
//	[fat bit][own id: w][dist to fat 0: dw]...[dist to fat F-1: dw]
//	  then, thin vertices only, entries of [thin id: w][dist: dw]
//
// Distances greater than f (or unreachable) are stored as the sentinel
// value f+1. A thin list may overestimate a distance whose shortest path
// uses a fat hop; the fat-table minimum corrects it at query time.
func (s Scheme) EncodeArena(g *graph.Graph, workers int, _ core.Layout) (*core.DistArena, error) {
	if s.F < 1 {
		return nil, fmt.Errorf("distance: bound F must be >= 1, got %d", s.F)
	}
	n := g.N()
	fat, fatDist, thin, err := s.boundedTables(g)
	if err != nil {
		return nil, err
	}
	order := make([]int32, n)
	for r, v := range g.VerticesByDegreeDesc() {
		order[r] = int32(v)
	}
	return core.EncodeBoundedArena(fat, fatDist, thin, s.F, order, workers)
}

// boundedTables computes the Lemma 7 label contents: the fat flag per
// vertex, every vertex's fat-hub distance table (sentinel F+1), and each
// thin vertex's sorted thin-reachability list.
func (s Scheme) boundedTables(g *graph.Graph) (fat []bool, fatDist [][]int32, thin [][]core.DistEntry, err error) {
	n := g.N()
	tau, err := s.Threshold(n)
	if err != nil {
		return nil, nil, nil, err
	}
	hubs, fatIsSet := fatHubs(g, tau)
	fat = fatIsSet

	sentinel := int32(s.F + 1)
	fatDist = make([][]int32, n)
	for v := range fatDist {
		row := make([]int32, len(hubs))
		for i := range row {
			row[i] = sentinel
		}
		fatDist[v] = row
	}
	for i, fv := range hubs {
		for v, d := range g.BFSBounded(fv, s.F, nil) {
			fatDist[v][i] = int32(d)
		}
	}

	thin = make([][]core.DistEntry, n)
	for v := 0; v < n; v++ {
		if fat[v] {
			continue
		}
		reach := g.BFSBounded(v, s.F, func(u int) bool { return !fat[u] })
		list := make([]core.DistEntry, 0, len(reach))
		for u, d := range reach {
			if u != v {
				list = append(list, core.DistEntry{ID: int32(u), D: int32(d)})
			}
		}
		sortDistEntries(list) // deterministic labels, sorted for binary search
		thin[v] = list
	}
	return fat, fatDist, thin, nil
}

// sortDistEntries orders a thin list by vertex id ascending.
func sortDistEntries(list []core.DistEntry) {
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
}

// sortHubs orders the fat set by (degree desc, id asc) — the table index
// order of Lemma 7's labels.
func sortHubs(g *graph.Graph, hubs []int) {
	sort.Slice(hubs, func(i, j int) bool {
		di, dj := g.Degree(hubs[i]), g.Degree(hubs[j])
		if di != dj {
			return di > dj
		}
		return hubs[i] < hubs[j]
	})
}

// fatHubs returns the fat vertices sorted by (degree desc, id asc) — table
// index order — and the per-vertex fat flag.
func fatHubs(g *graph.Graph, tau int) ([]int, []bool) {
	n := g.N()
	var hubs []int
	for v := 0; v < n; v++ {
		if g.Degree(v) >= tau {
			hubs = append(hubs, v)
		}
	}
	sortHubs(g, hubs)
	fat := make([]bool, n)
	for _, v := range hubs {
		fat[v] = true
	}
	return hubs, fat
}

// Decoder is Lemma 7's decoder: it answers bounded distance queries from two
// labels alone, the paper's contract the served DistEngine is pinned to. It
// depends only on the family parameters (n, f, number of fat vertices).
type Decoder struct {
	w    int
	dw   int
	f    int
	nFat int
}

// NewDecoder returns the decoder for a Lemma 7 labeling of n vertices with
// family parameters p, a bdist arena's or store's Params. Its labels are the
// arena's, viewed in place with bitstr.SlabLabel.
func NewDecoder(n int, p core.DistParams) (*Decoder, error) {
	if p.Kind != core.DistBounded {
		return nil, fmt.Errorf("distance: Lemma 7's decoder reads bdist labels, not %s", p.Kind)
	}
	if err := p.Validate(n); err != nil {
		return nil, fmt.Errorf("distance: %w", err)
	}
	return &Decoder{w: bitstr.WidthFor(uint64(n)), dw: p.DW, f: p.F, nFat: p.NFat}, nil
}

type parsed struct {
	fat     bool
	id      uint64
	tblOff  int // bit offset of the fat table
	listOff int // bit offset of the thin list (== end of fat table)
	s       bitstr.String
}

func (d *Decoder) parse(s bitstr.String) (parsed, error) {
	r := bitstr.NewReader(s)
	fat, err := r.ReadBit()
	if err != nil {
		return parsed{}, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	id, err := r.ReadUint(d.w)
	if err != nil {
		return parsed{}, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	tblOff := 1 + d.w
	listOff := tblOff + d.nFat*d.dw
	if s.Len() < listOff {
		return parsed{}, fmt.Errorf("%w: label of %d bits, fat table needs %d", ErrBadLabel, s.Len(), listOff)
	}
	if !fat {
		body := s.Len() - listOff
		if body%(d.w+d.dw) != 0 {
			return parsed{}, fmt.Errorf("%w: thin list of %d bits", ErrBadLabel, body)
		}
	} else if s.Len() != listOff {
		return parsed{}, fmt.Errorf("%w: fat label of %d bits, want %d", ErrBadLabel, s.Len(), listOff)
	}
	return parsed{fat: fat, id: id, tblOff: tblOff, listOff: listOff, s: s}, nil
}

// fatTableEntry reads entry i of the fat table.
func (d *Decoder) fatTableEntry(p parsed, i int) (int, error) {
	r := bitstr.NewReader(p.s)
	if err := r.Seek(p.tblOff + i*d.dw); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	v, err := r.ReadUint(d.dw)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	return int(v), nil
}

// thinListLookup scans p's thin list for the target id.
func (d *Decoder) thinListLookup(p parsed, target uint64) (int, bool, error) {
	r := bitstr.NewReader(p.s)
	if err := r.Seek(p.listOff); err != nil {
		return 0, false, fmt.Errorf("%w: %v", ErrBadLabel, err)
	}
	for r.Remaining() >= d.w+d.dw {
		id, err := r.ReadUint(d.w)
		if err != nil {
			return 0, false, fmt.Errorf("%w: %v", ErrBadLabel, err)
		}
		dist, err := r.ReadUint(d.dw)
		if err != nil {
			return 0, false, fmt.Errorf("%w: %v", ErrBadLabel, err)
		}
		if id == target {
			return int(dist), true, nil
		}
	}
	return 0, false, nil
}

// Dist returns the exact hop distance between the two labeled vertices if
// it is at most f, and Beyond otherwise.
func (d *Decoder) Dist(a, b bitstr.String) (int, error) {
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
	best := d.f + 1

	// Minimum over fat relays: dist(a, z) + dist(z, b) for every fat z.
	// When a (or b) is itself fat, its own table contains the direct entry
	// (distance 0 to itself), so this covers the fat-fat and fat-thin cases
	// of Lemma 7's decoder.
	for i := 0; i < d.nFat; i++ {
		da, err := d.fatTableEntry(pa, i)
		if err != nil {
			return 0, err
		}
		if da >= best {
			continue
		}
		db, err := d.fatTableEntry(pb, i)
		if err != nil {
			return 0, err
		}
		if s := da + db; s < best {
			best = s
		}
	}

	// Thin-only paths (both endpoints thin).
	if !pa.fat && !pb.fat {
		if v, ok, err := d.thinListLookup(pa, pb.id); err != nil {
			return 0, err
		} else if ok && v < best {
			best = v
		}
		if best > 0 {
			if v, ok, err := d.thinListLookup(pb, pa.id); err != nil {
				return 0, err
			} else if ok && v < best {
				best = v
			}
		}
	}

	if best > d.f {
		return Beyond, nil
	}
	return best, nil
}
