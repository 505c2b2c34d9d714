package core_test

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/distance"
)

// TestRefDistIgnoresHubTable: the reference walk reads the slab, not the
// hub table the kernel reads, so a corrupted table entry shows up as a
// disagreement on the one pair whose only common hub it is. Were the
// reference to read the table too, the kernel tests would compare the table
// with itself.
func TestRefDistIgnoresHubTable(t *testing.T) {
	entries := [][]core.DistEntry{
		{{ID: 0, D: 0}, {ID: 3, D: 2}},
		{{ID: 1, D: 0}, {ID: 3, D: 1}},
		{{ID: 2, D: 0}},
		{{ID: 3, D: 0}},
	}
	for _, order := range [][]int32{nil, {3, 1, 0, 2}} {
		arena, err := core.EncodePLLArena(entries, 2, order, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng, rd := buildWithRef(t, arena.Slab, arena)
		for _, p := range [][2]int{{0, 1}, {1, 0}} {
			got, _ := eng.Dist(p[0], p[1])
			want, err := rd.Dist(p[0], p[1])
			if err != nil || got != 3 || want != 3 {
				t.Fatalf("order %v: before corruption Dist%v = %d, reference %d (%v); want 3", order, p, got, want, err)
			}
		}
		eng.CorruptHub(0, 1, 7) // vertex 0's entry for hub 3: distance 2 → 7
		for _, p := range [][2]int{{0, 1}, {1, 0}} {
			got, _ := eng.Dist(p[0], p[1])
			want, err := rd.Dist(p[0], p[1])
			if err != nil || got != 8 || want != 3 {
				t.Fatalf("order %v: after corrupting the table Dist%v = %d, reference %d (%v); want 8 and 3", order, p, got, want, err)
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
// table sized by those counts, the meta table) stays within
// 64/(1+dw) × the slab's bytes plus 16 bytes per label: a hostile store
// cannot make construction allocate more than a fixed multiple of itself.
// One entry more than the bound is refused before any hub table exists.
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
			if limit := uint64(64*slabBytes/(1+dw) + 16*n); got > limit {
				t.Errorf("dw=%d, %d-word labels declaring %d entries: construction allocated %d bytes over a %d-byte slab; want <= %d",
					dw, words, cnt, got, slabBytes, limit)
			}
			if got, _ := build(dw, words, cnt+1); got > 16*n+4<<10 {
				t.Errorf("dw=%d, %d-word labels declaring %d entries, one past the bound: construction allocated %d bytes; want the meta table and no hub table",
					dw, words, cnt+1, got)
			}
		}
	}
}

// BenchmarkDistEngineBuild builds a PLL engine over a degree-ordered arena at
// n = 2^14. CI holds its B/op under a ceiling (scripts/alloc_ceiling_gate.sh)
// of the exact meta table (16 B per label) plus the exact hub table (8 B per
// entry; 731 648 entries on this graph) plus 5 %: a table grown by append, or
// a second copy of it, fails it.
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
