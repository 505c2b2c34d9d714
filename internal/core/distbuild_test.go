package core_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/distance"
)

// TestRefDistIgnoresHubTable: the reference walk reads the slab, not the
// hub records the kernel reads, so a corrupted head distance or tail entry
// shows up as a disagreement on the one pair whose only common hub it is.
// Were the reference to read the records too, the kernel tests would
// compare the records with themselves.
func TestRefDistIgnoresHubTable(t *testing.T) {
	// Vertices 0 and 1 meet only at hub 3, in the head; vertices 2 and 3 only
	// at hub 300, in the tail.
	entries := make([][]core.DistEntry, 320)
	entries[0] = []core.DistEntry{{ID: 0, D: 0}, {ID: 3, D: 2}}
	entries[1] = []core.DistEntry{{ID: 1, D: 0}, {ID: 3, D: 1}}
	entries[2] = []core.DistEntry{{ID: 2, D: 0}, {ID: 300, D: 2}, {ID: 310, D: 1}}
	entries[3] = []core.DistEntry{{ID: 3, D: 0}, {ID: 300, D: 1}}
	for _, order := range [][]int32{nil, reversedOrder(len(entries))} {
		arena, err := core.EncodePLLArena(entries, 9, order, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng, rd := buildWithRef(t, arena.Slab, arena)
		for _, tc := range []struct {
			where string
			v, j  int // the entry corrupted: vertex v's j-th hub
			pair  [2]int
		}{
			{"head distance", 0, 1, [2]int{0, 1}}, // vertex 0's hub 3: distance 2 → 7
			{"tail entry", 2, 1, [2]int{2, 3}},    // vertex 2's hub 300: distance 2 → 7
		} {
			for _, p := range [][2]int{tc.pair, {tc.pair[1], tc.pair[0]}} {
				got, _ := eng.Dist(p[0], p[1])
				want, err := rd.Dist(p[0], p[1])
				if err != nil || got != 3 || want != 3 {
					t.Fatalf("order %v: before corrupting a %s Dist%v = %d, reference %d (%v); want 3", order != nil, tc.where, p, got, want, err)
				}
			}
			eng.CorruptHub(tc.v, tc.j, 7)
			for _, p := range [][2]int{tc.pair, {tc.pair[1], tc.pair[0]}} {
				got, _ := eng.Dist(p[0], p[1])
				want, err := rd.Dist(p[0], p[1])
				if err != nil || got != 8 || want != 3 {
					t.Fatalf("order %v: after corrupting a %s Dist%v = %d, reference %d (%v); want 8 and 3", order != nil, tc.where, p, got, want, err)
				}
			}
		}
	}
}

// allocatedBytes is the heap a single run of fn allocates: the least of five
// runs, since the process-wide counter also sees whatever the runtime and
// earlier tests' goroutines allocate meanwhile.
func allocatedBytes(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDistEngineHostileCountsAllocateBounded: a PLL arena whose every header
// declares the largest entry count its body bits allow — each entry at its
// 1 + dw bit minimum — over bodies that decode to no valid entry list. The
// build fails with ErrBadLabel, and what it allocates on the way (the hub
// records sized by those counts, their offsets) stays within 64/(1+dw) ×
// the slab's bytes — at most one 8-byte word per entry — plus a record's
// fixed bytes per label: a hostile store cannot make construction allocate
// more than a fixed multiple of itself. One entry more than the bound is
// refused before any record exists.
func TestDistEngineHostileCountsAllocateBounded(t *testing.T) {
	const n = 1 << 10
	const header = 10 + 11 // w + wCnt for n = 2^10
	build := func(dw, words, cnt int) (got uint64, slabBytes int) {
		labels := make([]bitstr.String, n)
		for v := range labels {
			var b bitstr.Builder
			b.AppendUint(uint64(v), 10)
			b.AppendUint(uint64(cnt), 11)
			for i := header; i < words*64; i++ {
				b.AppendBit(false) // no δ code starts with six zeros
			}
			labels[v] = b.String()
		}
		slab, bitLens := bitstr.PackSlab(labels)
		p := core.DistParams{Kind: core.DistPLL, DW: dw}
		var err error
		got = allocatedBytes(func() { _, err = core.NewDistEngineFromArena(slab, bitLens, nil, p) })
		if !errors.Is(err, core.ErrBadLabel) {
			t.Fatalf("dw=%d, %d-word labels declaring %d entries: err = %v, want ErrBadLabel", dw, words, cnt, err)
		}
		return got, len(slab)
	}
	for _, dw := range []int{1, 7, 32} {
		for _, words := range []int{1, 4, 33} {
			cnt := (words*64 - header) / (1 + dw)
			got, slabBytes := build(dw, words, cnt)
			// A record's fixed bytes: its 4-byte offset, the id and tail-count
			// words, the 256-bit bitmap and at most one word of head padding,
			// in 32-bit words when dw <= 8 (w = 10), else 64-bit ones.
			word := 4
			if dw > 8 {
				word = 8
			}
			if limit := uint64(64*slabBytes/(1+dw) + (4+3*word+32)*n); got > limit {
				t.Errorf("dw=%d, %d-word labels declaring %d entries: construction allocated %d bytes over a %d-byte slab; want <= %d",
					dw, words, cnt, got, slabBytes, limit)
			}
			if got, _ := build(dw, words, cnt+1); got > 16*n+4<<10 {
				t.Errorf("dw=%d, %d-word labels declaring %d entries, one past the bound: construction allocated %d bytes; want the record offsets and no records",
					dw, words, cnt+1, got)
			}
		}
	}
}

// BenchmarkDistEngineBuild builds a PLL engine over a degree-ordered arena at
// n = 2^14. CI holds its B/op under a ceiling (scripts/alloc_ceiling_gate.sh)
// of the exact hub records and their offsets (HubTableBytes, 2 337 268 bytes
// on this graph) plus 5 %: a table grown by append, a second copy of it, or
// the 8-byte-per-entry table it replaced (5 853 184 bytes) fails it.
func BenchmarkDistEngineBuild(b *testing.B) {
	g, err := gen.ChungLuPowerLaw(1<<14, 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	arena, err := distance.PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewDistEngine(arena); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodePLLArena runs the slab pipeline's distance encode over the
// PLL entries of the n = 2^14 graph BenchmarkDistEngineBuild serves,
// degree-ordered, recovered from its arena up front. CI holds its B/op under
// a ceiling (scripts/alloc_ceiling_gate.sh) just above the slab, the length
// and offset tables and the ranges: a per-label allocation fails it.
func BenchmarkEncodePLLArena(b *testing.B) {
	g, err := gen.ChungLuPowerLaw(1<<14, 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	arena, err := distance.PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree)
	if err != nil {
		b.Fatal(err)
	}
	entries, maxDist := pllEntriesOf(b, arena)
	if again, err := core.EncodePLLArena(entries, maxDist, arena.Order, 0); err != nil || !bytes.Equal(again.Slab, arena.Slab) {
		b.Fatalf("re-encoding the recovered entries: slab differs (err = %v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EncodePLLArena(entries, maxDist, arena.Order, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// pllEntriesOf decodes every label of a PLL arena back into its (hub rank,
// distance) list, and returns the largest distance.
func pllEntriesOf(b *testing.B, a *core.DistArena) ([][]core.DistEntry, int32) {
	n := a.N()
	w, wCnt := bitstr.WidthFor(uint64(n)), bitstr.WidthFor(uint64(n)+1)
	entries, maxDist := make([][]core.DistEntry, n), int32(0)
	walk := bitstr.NewSlabWalk(len(a.Slab), a.BitLens, a.Order)
	for walk.Next() {
		v, off := walk.Label()
		r := bitstr.NewReader(bitstr.SlabLabel(a.Slab, off, a.BitLens[v]))
		if err := r.Seek(w); err != nil {
			b.Fatal(err)
		}
		cnt, err := r.ReadUint(wCnt)
		for rank := uint64(0); err == nil && uint64(len(entries[v])) < cnt; {
			var gap, d uint64
			if gap, err = r.ReadDelta0(); err == nil {
				d, err = r.ReadUint(a.Params.DW)
			}
			rank += gap
			entries[v] = append(entries[v], core.DistEntry{ID: int32(rank), D: int32(d)})
			maxDist = max(maxDist, int32(d))
		}
		if err != nil {
			b.Fatalf("label %d: %v", v, err)
		}
	}
	return entries, maxDist
}
