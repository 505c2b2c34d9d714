package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// RefDist answers in-range distance queries by a slow reference walk that
// shares nothing with the hot kernels: PLL labels are parsed from the slab
// header on, their lists decoded entry by entry with the bounds-checked
// construction-time decoder (slabReadDeltaChecked) and intersected through a
// map; bounded labels take the validated header records (id and thin-list
// count), the plain minimum over the fat table and a linear scan of the
// thin lists. Each label's slab offset comes from its own walk over the
// arena, never from the engine's meta off or hub records, so the kernel
// tests and FuzzDistEngineHeaders pin what construction decoded to the
// slab's bits.
type RefDist struct {
	e        *DistEngine
	off, end []int64 // label body start and label end, slab bits, by vertex
	id       []uint64
	cnt      []int64
}

// NewRefDist builds the reference over the arena e was built from; an
// error means the walk does not see the labels construction accepted.
func NewRefDist(e *DistEngine, bitLens []int, order []int32) (*RefDist, error) {
	header := int64(e.w + e.wCnt)
	if e.kind != DistPLL {
		header = int64(1 + e.w)
	}
	n := len(bitLens)
	r := &RefDist{e: e, off: make([]int64, n), end: make([]int64, n), id: make([]uint64, n), cnt: make([]int64, n)}
	walk := bitstr.NewSlabWalk(len(e.slab), bitLens, order)
	for walk.Next() {
		v, off := walk.Label()
		r.off[v], r.end[v] = off+header, off+int64(bitLens[v])
		if e.kind == DistPLL {
			r.id[v] = bitstr.SlabReadBits(e.slab, off, e.w)
			r.cnt[v] = int64(bitstr.SlabReadBits(e.slab, off+int64(e.w), e.wCnt))
		} else {
			r.id[v], r.cnt[v] = e.meta[v].id(), e.meta[v].cnt()
		}
	}
	return r, walk.Err()
}

// Dist answers one in-range query. An error means the walk left the label's
// bits, which construction promises cannot happen on an accepted engine.
func (r *RefDist) Dist(u, v int) (int, error) {
	if r.id[u] == r.id[v] {
		return 0, nil
	}
	if r.e.kind == DistPLL {
		return r.distPLL(u, v)
	}
	return r.distBounded(u, v), nil
}

func (r *RefDist) distPLL(u, v int) (int, error) {
	e := r.e
	hubs := make(map[uint64]uint64, r.cnt[u])
	best := uint64(1 << 30) // the legacy decoders' "no common hub" bound
	for side, x := range [2]int{u, v} {
		pos, end, rank := r.off[x], r.end[x], uint64(0)
		for i := int64(0); i < r.cnt[x]; i++ {
			gap, wd, ok := slabReadDeltaChecked(e.slab, pos, end)
			if !ok || pos+wd+int64(e.dw) > end {
				return 0, fmt.Errorf("reference walk: label %d entry %d at bit %d leaves the label", x, i, pos)
			}
			rank += gap
			dist := bitstr.SlabReadBits(e.slab, pos+wd, e.dw)
			pos += wd + int64(e.dw)
			if side == 0 {
				hubs[rank] = dist
			} else if da, ok := hubs[rank]; ok && da+dist < best {
				best = da + dist
			}
		}
	}
	if best == 1<<30 {
		return graph.Unreachable, nil
	}
	return int(best), nil
}

func (r *RefDist) distBounded(u, v int) int {
	e := r.e
	best := e.f + 1
	for i := 0; i < e.nFat; i++ {
		da := bitstr.SlabReadBits(e.slab, r.off[u]+int64(i*e.dw), e.dw)
		db := bitstr.SlabReadBits(e.slab, r.off[v]+int64(i*e.dw), e.dw)
		if s := int(da + db); s < best {
			best = s
		}
	}
	if !e.meta[u].fat() && !e.meta[v].fat() && e.w > 0 {
		stride := int64(e.w + e.dw)
		for _, q := range [2][2]int{{u, v}, {v, u}} {
			base := r.off[q[0]] + int64(e.nFat*e.dw)
			for i := int64(0); i < r.cnt[q[0]]; i++ {
				if bitstr.SlabReadBits(e.slab, base+i*stride, e.w) != r.id[q[1]] {
					continue
				}
				if d := int(bitstr.SlabReadBits(e.slab, base+i*stride+int64(e.w), e.dw)); d < best {
					best = d
				}
			}
		}
	}
	if best > e.f {
		return graph.Unreachable
	}
	return best
}

// DirtyScratchSlots takes a rank scratch from a PLL engine's pool, counts
// its non-zero slots and puts it back: every query must leave the scratch
// it used all zero.
func (e *DistEngine) DirtyScratchSlots() int {
	s := e.takeScratch()
	defer e.releaseScratch(s)
	dirty := 0
	for _, x := range s.slot {
		if x != 0 {
			dirty++
		}
	}
	return dirty
}

// CorruptHub overwrites the distance of entry j in vertex v's list in a PLL
// engine's hub records — a head distance when the entry's rank is below
// pllHeadHubs, a tail word otherwise — leaving the slab as it was.
func (e *DistEngine) CorruptHub(v, j int, dist uint64) {
	if e.pll32 != nil {
		corruptHub(e.pll32, v, j, dist)
	} else {
		corruptHub(e.pll64, v, j, dist)
	}
}

func corruptHub[T hubWord](h *hubRecords[T], v, j int, dist uint64) {
	rec := h.words[h.off[v]:]
	bw := pllHeadHubs >> wordLog[T]()
	head := 0
	for _, x := range rec[2 : 2+bw] {
		head += bits.OnesCount64(uint64(x))
	}
	if j < head {
		setHead(rec[2+bw:], uint(j), dist)
		return
	}
	tail := h.words[int(h.off[v])-int(rec[1]) : h.off[v]]
	rank := uint64(tail[j-head]) >> h.dw
	tail[j-head] = T(rank<<h.dw | dist)
}

// HubWordBits is the width of a PLL engine's hub record words: 32 when a
// tail entry rank<<dw|dist fits 32 bits, else 64.
func (e *DistEngine) HubWordBits() int {
	if e.pll32 != nil {
		return 32
	}
	return 64
}
