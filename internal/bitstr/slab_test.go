package bitstr

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestSlabWriterMatchesBuilder writes randomized field sequences through
// both a Builder and a SlabWriter and requires bit-identical results.
func TestSlabWriterMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		type field struct {
			v uint64
			w int
		}
		nf := rng.Intn(40)
		fields := make([]field, nf)
		bits := 0
		for i := range fields {
			w := 1 + rng.Intn(64)
			fields[i] = field{v: rng.Uint64(), w: w}
			bits += w
		}
		var b Builder
		for _, f := range fields {
			b.AppendUint(f.v, f.w)
		}
		want := b.String()

		slab := make([]byte, SlabSize(SlabLabelBytes(bits)))
		sw := NewSlabWriter(slab)
		sw.SeekBit(0)
		for _, f := range fields {
			sw.WriteUint(f.v, f.w)
		}
		sw.Flush()
		got, err := SlabView(slab, 0, bits)
		if err != nil {
			t.Fatalf("trial %d: SlabView: %v", trial, err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: slab %v != builder %v", trial, got, want)
		}
	}
}

// TestSlabWriterMultiLabel packs several labels back to back at byte offsets
// and checks each view independently, including Pos accounting.
func TestSlabWriterMultiLabel(t *testing.T) {
	lens := []int{1, 63, 64, 65, 130, 7}
	size := 0
	offs := make([]int64, len(lens))
	for i, l := range lens {
		offs[i] = int64(size) << 3
		size += SlabLabelBytes(l)
	}
	slab := make([]byte, SlabSize(size))
	sw := NewSlabWriter(slab)
	for i, l := range lens {
		sw.SeekBit(offs[i])
		for j := 0; j < l; j++ {
			sw.WriteBit((i+j)%3 == 0)
		}
		if got := sw.Pos(); got != offs[i]+int64(l) {
			t.Fatalf("label %d: Pos = %d, want %d", i, got, offs[i]+int64(l))
		}
		sw.Flush()
	}
	for i, l := range lens {
		view, err := SlabView(slab, offs[i], l)
		if err != nil {
			t.Fatalf("label %d: %v", i, err)
		}
		for j := 0; j < l; j++ {
			bit, err := view.Bit(j)
			if err != nil {
				t.Fatalf("label %d bit %d: %v", i, j, err)
			}
			if want := (i+j)%3 == 0; bit != want {
				t.Fatalf("label %d bit %d = %v, want %v", i, j, bit, want)
			}
		}
	}
}

// TestSlabSetBitAndReadBits checks the random-access primitives against the
// sequential writer.
func TestSlabSetBitAndReadBits(t *testing.T) {
	const bits = 500
	slab := make([]byte, SlabSize(SlabLabelBytes(bits)))
	set := map[int64]bool{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 120; i++ {
		p := int64(rng.Intn(bits))
		SlabSetBit(slab, p)
		set[p] = true
	}
	view, err := SlabView(slab, 0, bits)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < bits; p++ {
		bit, _ := view.Bit(int(p))
		if bit != set[p] {
			t.Fatalf("bit %d = %v, want %v", p, bit, set[p])
		}
	}
	// Random word-width reads must agree with PeekUint on the view.
	for i := 0; i < 500; i++ {
		w := 1 + rng.Intn(64)
		off := rng.Intn(bits - w + 1)
		want, err := view.PeekUint(off, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := SlabReadBits(slab, int64(off), w); got != want {
			t.Fatalf("SlabReadBits(%d,%d) = %#x, want %#x", off, w, got, want)
		}
	}
}

func TestSlabViewErrors(t *testing.T) {
	slab := make([]byte, 16)
	if _, err := SlabView(slab, 3, 8); err == nil {
		t.Fatal("unaligned view accepted")
	}
	if _, err := SlabView(slab, 64, 100); err == nil {
		t.Fatal("overlong view accepted")
	}
	if _, err := SlabView(slab, 0, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestVectorGrow(t *testing.T) {
	v := NewVector(10)
	v.Set(3)
	v.Set(9)
	v.Grow(200)
	if v.Len() != 200 {
		t.Fatalf("Len = %d, want 200", v.Len())
	}
	if !v.Get(3) || !v.Get(9) {
		t.Fatal("Grow lost existing bits")
	}
	for i := 10; i < 200; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d nonzero after Grow", i)
		}
	}
	v.Set(199)
	if v.Count() != 3 {
		t.Fatalf("Count = %d, want 3", v.Count())
	}
	v.Grow(50) // shrinking request is a no-op
	if v.Len() != 200 {
		t.Fatalf("Len after no-op Grow = %d, want 200", v.Len())
	}
}

// BenchmarkSlabWriterFill measures the word-granularity fill path; the
// whole loop runs with zero per-label allocations.
func BenchmarkSlabWriterFill(b *testing.B) {
	const labelBits = 20 * 17 // 20 ids of 17 bits
	const labels = 1024
	slab := make([]byte, SlabSize(labels*SlabLabelBytes(labelBits)))
	sw := NewSlabWriter(slab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 0; l < labels; l++ {
			sw.SeekBit(int64(l*SlabLabelBytes(labelBits)) << 3)
			for f := 0; f < 20; f++ {
				sw.WriteUint(uint64(l+f), 17)
			}
			sw.Flush()
		}
	}
}

// TestSlabWalk: the walk hands out every label once, in physical order, at
// the offsets the byte-aligned prefix sum dictates, under the identity and
// under a permutation; SlabLabel over those offsets is the label written.
// Under the identity, PackSlab over the same labels built one by one is that
// very slab, and SlabView at the walk's offsets returns them.
func TestSlabWalk(t *testing.T) {
	bitLens := []int{70, 0, 1, 64, 65, 129} // id-indexed
	labels := make([]String, len(bitLens))
	for v, bits := range bitLens {
		var b Builder
		for i := 0; i < bits; i++ {
			b.AppendBit((i+v)%3 == 0)
		}
		labels[v] = b.String()
	}
	for _, order := range [][]int32{nil, {4, 2, 0, 5, 1, 3}} {
		size := 0
		for _, bits := range bitLens {
			size += SlabLabelBytes(bits)
		}
		slab := make([]byte, SlabSize(size))
		// Write label v, a pattern keyed by v, at its physical slot.
		sw := NewSlabWriter(slab)
		wantOff := make([]int64, len(bitLens))
		var off int64
		for r := range bitLens {
			v := r
			if order != nil {
				v = int(order[r])
			}
			wantOff[v] = off
			sw.SeekBit(off)
			for i := 0; i < bitLens[v]; i++ {
				sw.WriteBit((i+v)%3 == 0)
			}
			sw.Flush()
			off += int64(SlabLabelBytes(bitLens[v])) << 3
		}
		if order == nil {
			packed, lens := PackSlab(labels)
			if !bytes.Equal(packed, slab) || !slices.Equal(lens, bitLens) {
				t.Fatalf("PackSlab = %x, lengths %v; SlabWriter wrote %x, lengths %v", packed, lens, slab, bitLens)
			}
		}
		w := NewSlabWalk(len(slab), bitLens, order)
		for r := 0; w.Next(); r++ {
			v, off := w.Label()
			if want := r; order != nil && v != int(order[r]) || order == nil && v != want {
				t.Fatalf("rank %d holds label %d under order %v", r, v, order)
			}
			if off != wantOff[v] {
				t.Fatalf("label %d at bit %d, want %d", v, off, wantOff[v])
			}
			if l := SlabLabel(slab, off, bitLens[v]); !l.Equal(labels[v]) {
				t.Fatalf("label %d: SlabLabel = %v, want %v", v, l, labels[v])
			}
			if l, err := SlabView(slab, off, bitLens[v]); err != nil || !l.Equal(labels[v]) {
				t.Fatalf("label %d: SlabView = %v (%v), want %v", v, l, err, labels[v])
			}
		}
		if err := w.Tiled(); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
	}
}

// TestSlabWalkRejects: every way a description can lie stops the walk before
// the offending label is handed out.
func TestSlabWalkRejects(t *testing.T) {
	slab := make([]byte, 24)
	for _, tc := range []struct {
		name    string
		bytes   int
		bitLens []int
		order   []int32
		tiled   bool // the walk itself passes; only Tiled objects
	}{
		{name: "short permutation", bytes: 24, bitLens: []int{64, 64, 64}, order: []int32{0, 1}},
		{name: "entry out of range", bytes: 24, bitLens: []int{64, 64, 64}, order: []int32{0, 3, 1}},
		{name: "negative entry", bytes: 24, bitLens: []int{64, 64, 64}, order: []int32{0, -1, 1}},
		{name: "repeated label", bytes: 24, bitLens: []int{64, 64, 64}, order: []int32{0, 1, 1}},
		{name: "negative length", bytes: 24, bitLens: []int{64, -1, 64}},
		{name: "label past the end", bytes: 24, bitLens: []int{64, 64, 65}},
		{name: "padded label past the end", bytes: 23, bitLens: []int{64, 64, 60}},
		{name: "length that overflows the padded size", bytes: 24, bitLens: []int{64, int(^uint(0) >> 1)}},
		// Inside the slab's bytes, but its last word is not: a word read
		// there would run past the backing slice.
		{name: "label ending in a partial last word", bytes: 12, bitLens: []int{64, 24}},
		{name: "byte-sized labels in a partial last word", bytes: 13, bitLens: []int{8, 8, 8, 8, 8, 8, 8, 8, 8}},
		{name: "trailing word", bytes: 24, bitLens: []int{64, 64}, tiled: true},
		{name: "stray bytes", bytes: 19, bitLens: []int{64, 64}, tiled: true},
		{name: "tail padded past a word", bytes: 24, bitLens: []int{64, 3}, tiled: true},
	} {
		w := NewSlabWalk(len(slab[:tc.bytes]), tc.bitLens, tc.order)
		for w.Next() {
		}
		if tc.tiled {
			if err := w.Err(); err != nil {
				t.Errorf("%s: walk itself failed: %v", tc.name, err)
			}
		} else if w.Err() == nil {
			t.Errorf("%s: walk accepted", tc.name)
		}
		if w.Tiled() == nil {
			t.Errorf("%s: Tiled accepted", tc.name)
		}
	}
}

// TestSlabWalkTiles: labels back to back with the tail padded to a word are
// the one geometry Tiled accepts, a slab of whole words whatever the labels.
func TestSlabWalkTiles(t *testing.T) {
	for _, tc := range []struct {
		bytes   int
		bitLens []int
	}{
		{0, nil},
		{8, []int{1}},
		{8, []int{3, 9, 17, 0, 8}},  // 1+2+3+0+1 bytes
		{16, []int{64, 3}},          // 9 bytes
		{16, []int{21, 21, 21, 21}}, // 1 + w bits at w = 20: 3 bytes each
	} {
		w := NewSlabWalk(tc.bytes, tc.bitLens, nil)
		for w.Next() {
		}
		if err := w.Tiled(); err != nil {
			t.Errorf("%v in %d bytes: %v", tc.bitLens, tc.bytes, err)
		}
	}
}

// TestSlabWriterSharedWord: two writers fill alternate labels of one slab at
// the same time, so every label boundary is a word two goroutines store
// into. Each writer stores only its own labels' bytes, so under -race the
// fill is clean, and every label reads back as a Builder writes it.
func TestSlabWriterSharedWord(t *testing.T) {
	lens := []int{13, 70, 5, 99, 64, 1, 21, 21, 21, 130, 7, 8, 16, 3}
	want := make([]String, len(lens))
	offs := make([]int64, len(lens))
	size := 0
	for i, l := range lens {
		var b Builder
		for j := 0; j < l; j++ {
			b.AppendBit((i*7+j)%5 < 2)
		}
		want[i] = b.String()
		offs[i] = int64(size) << 3
		size += SlabLabelBytes(l)
	}
	for round := 0; round < 50; round++ {
		slab := make([]byte, SlabSize(size))
		var wg sync.WaitGroup
		for first := 0; first < 2; first++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw := NewSlabWriter(slab)
				for i := first; i < len(lens); i += 2 {
					sw.SeekBit(offs[i])
					for j := 0; j < lens[i]; {
						// Mixed field widths, so stores land mid-word.
						width := min(1+(i+j)%23, lens[i]-j)
						v, _ := want[i].PeekUint(j, width)
						sw.WriteUint(v, width)
						j += width
					}
					sw.Flush()
				}
			}()
		}
		wg.Wait()
		if got, _ := PackSlab(want); !bytes.Equal(slab, got) {
			t.Fatalf("round %d: concurrent fill %x, PackSlab %x", round, slab, got)
		}
	}
}

// BenchmarkBuilderGrownFill is the Builder counterpart with preallocation
// (Grow): the remaining non-slab encoders follow this pattern.
func BenchmarkBuilderGrownFill(b *testing.B) {
	const labels = 1024
	var bd Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 0; l < labels; l++ {
			bd.Reset()
			bd.Grow(20 * 17)
			for f := 0; f < 20; f++ {
				bd.AppendUint(uint64(l+f), 17)
			}
			_ = bd.Len()
		}
	}
}

// BenchmarkVectorGrowReuse exercises the pooled-scratch pattern Grow
// enables: one vector reused across increasing sizes without reallocation
// after the first.
func BenchmarkVectorGrowReuse(b *testing.B) {
	v := NewVector(0)
	v.Grow(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Reset()
		v.Grow(64 + i%4096)
		v.Set(i % v.Len())
	}
}

// TestIDBlockRoundTrip writes blocks of n fields of ⌈log₂ n⌉ bits with a
// SlabWriter, one WriteUint per field, and reads every field back with
// IDBlockField: sizes on both sides of a power of two (so the field width
// changes), the fields near the block's end that read past its last byte, and
// a zero tail.
func TestIDBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 255, 256, 257, 1000, 1 << 16, 1<<16 + 1} {
		w := WidthFor(uint64(n))
		ids := make([]int, n)
		block := make([]byte, (n*w+7)/8)
		sw := NewSlabWriter(block)
		for v := range ids {
			ids[v] = rng.Intn(n)
			sw.WriteUint(uint64(ids[v]), w)
		}
		sw.Flush()
		for v, id := range ids {
			if got := IDBlockField(block, v, uint(w)); got != id {
				t.Fatalf("n=%d: field %d = %d, want %d", n, v, got, id)
			}
		}
		if used := n * w % 8; used != 0 && block[len(block)-1]<<used != 0 {
			t.Fatalf("n=%d: last byte %08b has a nonzero tail", n, block[len(block)-1])
		}
	}
}
