package core

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// RefDist answers an in-range distance query by a slow reference walk that
// shares nothing with the hot kernels but the validated header records: PLL
// lists are decoded entry by entry with the bounds-checked construction-time
// decoder (slabReadDeltaChecked) and intersected through a map; bounded
// labels take the plain minimum over the fat table and a linear scan of the
// thin lists. The kernel tests and FuzzDistEngineHeaders pin Dist to it. An
// error means the walk left the label's bits, which construction promises
// cannot happen on an accepted engine.
func (e *DistEngine) RefDist(u, v int) (int, error) {
	mu, mv := e.meta[u], e.meta[v]
	if mu.id() == mv.id() {
		return 0, nil
	}
	if e.kind == DistPLL {
		return e.refDistPLL(mu, mv)
	}
	return e.refDistBounded(mu, mv), nil
}

func (e *DistEngine) refDistPLL(mu, mv vertexMeta) (int, error) {
	hubs := make(map[uint64]uint64, mu.cnt())
	best := uint64(1 << 30) // the legacy decoders' "no common hub" bound
	for side, m := range [2]vertexMeta{mu, mv} {
		pos, rank := m.off, uint64(0)
		for i := int64(0); i < m.cnt(); i++ {
			gap, wd, ok := slabReadDeltaChecked(e.slab, pos, e.slabBits)
			if !ok || pos+wd+int64(e.dw) > e.slabBits {
				return 0, fmt.Errorf("reference walk: entry %d at bit %d leaves the slab", i, pos)
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

func (e *DistEngine) refDistBounded(mu, mv vertexMeta) int {
	best := e.f + 1
	for i := 0; i < e.nFat; i++ {
		da := bitstr.SlabReadBits(e.slab, mu.off+int64(i*e.dw), e.dw)
		db := bitstr.SlabReadBits(e.slab, mv.off+int64(i*e.dw), e.dw)
		if s := int(da + db); s < best {
			best = s
		}
	}
	if !mu.fat() && !mv.fat() && e.w > 0 {
		stride := int64(e.w + e.dw)
		for _, q := range [2][2]vertexMeta{{mu, mv}, {mv, mu}} {
			base := q[0].off + int64(e.nFat*e.dw)
			for i := int64(0); i < q[0].cnt(); i++ {
				if bitstr.SlabReadBits(e.slab, base+i*stride, e.w) != q[1].id() {
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
