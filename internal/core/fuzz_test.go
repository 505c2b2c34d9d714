package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/gen"
)

// encodeLens packs per-label bit lengths as uvarints — the same wire shape
// the labelstore header uses, so fuzz mutations explore realistic header
// corruptions (truncated varints, giant lengths, length/blob disagreement).
func encodeLens(bitLens []int) []byte {
	out := make([]byte, 0, len(bitLens))
	var buf [binary.MaxVarintLen64]byte
	for _, bits := range bitLens {
		out = append(out, buf[:binary.PutUvarint(buf[:], uint64(bits))]...)
	}
	return out
}

// decodeLens is the fuzz-side inverse: uvarints back to ints, deliberately
// without sanitizing values (overlong lengths and wrap-around negatives must
// be rejected by the engine, not by the harness). Only the count is capped
// so a pathological input can't make the harness itself slow.
func decodeLens(data []byte) []int {
	const maxFuzzLabels = 1 << 12
	var lens []int
	for len(data) > 0 && len(lens) < maxFuzzLabels {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		lens = append(lens, int(v))
	}
	return lens
}

// decodeOrder reads a layout permutation as uvarints, nil for no bytes —
// unsanitized like decodeLens: a repeated, missing or out-of-range rank is the
// engine's to refuse.
func decodeOrder(data []byte) []int32 {
	var order []int32
	for _, v := range decodeLens(data) {
		order = append(order, int32(v))
	}
	return order
}

// encodeOrder is decodeOrder's inverse.
func encodeOrder(order []int32) []byte {
	lens := make([]int, len(order))
	for r, v := range order {
		lens[r] = int(v)
	}
	return encodeLens(lens)
}

// FuzzQueryEngineHeaders hammers NewQueryEngineFromPermutedArena with raw
// slab bytes, header-declared bit lengths and a layout permutation (none:
// id order). The property under test: for ANY input,
// construction either errors or yields an engine whose queries never panic
// or read out of bounds, and answer as FatThinDecoder does — the build-time
// validation is the only line of defense, because the probe path
// (bitstr.SlabReadBits) is unchecked by design, and the one-word match of a
// record-held list is exact only on the sorted lists the build lets through.
// An accepted engine's FatCount is its number of fat labels. An engine
// holding absent labels (0 bits, a shard's foreign thin labels) answers as
// the decoder does over their header stubs ([fat=0][rank]) where it answers,
// and otherwise refuses with ErrNotResident, never answering a pair a thin
// label resolves. Seeds come from real fat/thin and compressed labelings in
// their own order, so the corpus starts at valid headers and mutates outward,
// and from slabs the contract refuses.
func FuzzQueryEngineHeaders(f *testing.F) {
	var none []byte // id order
	seed := func(lab *Labeling) {
		slab, order, _ := lab.ArenaLayout()
		lens, perm := encodeLens(lab.BitLens()), encodeOrder(order)
		f.Add(slab, lens, perm)
		// The same labels over slabs that are not a whole number of words:
		// cut back to the labels' last byte, the last label ends in a partial
		// word (unless the labels happen to fill theirs) and must be refused;
		// with stray bytes after the tail, every label's last word is whole
		// and the labels must be served.
		f.Add(slab[:fuzzLabelBytes(lab.BitLens())], lens, perm)
		f.Add(append(slices.Clone(slab), 0xa5, 0x5a, 0xff), lens, perm)
	}
	g, err := gen.ChungLuPowerLaw(150, 2.5, 2, 17)
	if err != nil {
		f.Fatal(err)
	}
	lab, err := NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		f.Fatal(err)
	}
	seed(lab)
	for _, s := range []Scheme{NewSparseSchemeAuto(), NewCompressedScheme(NewPowerLawScheme(2.5))} {
		other, err := s.Encode(g)
		if err != nil {
			f.Fatal(err)
		}
		seed(other)
	}
	// A descending list the header record would hold: the build must refuse
	// it, since the one-word match of a record-held list assumes sorted ids.
	labels, _ := inlineLabels(3, []inlineShape{{"unsorted", 64 / 3, true}})
	slab, bitLens := bitstr.PackSlab(labels)
	if _, err := NewQueryEngineFromPermutedArena(slab, bitLens, nil); !errors.Is(err, ErrBadLabel) {
		f.Fatalf("unsorted record-held list: build err %v, want ErrBadLabel", err)
	}
	f.Add(slab, encodeLens(bitLens), none)
	f.Add([]byte{}, []byte{}, none)
	f.Add(make([]byte, 16), encodeLens([]int{9, 64}), none)
	f.Add(make([]byte, 11), encodeLens([]int{9, 64}), none) // label 1 ends in a partial word
	// A shard of a degree-ordered labeling, its foreign thin labels absent:
	// built, it answers fat–fat pairs only.
	slab, order, _ := lab.ArenaLayout()
	arenas, err := ShardLabelArenas(slab, lab.BitLens(), order, 3, ShardRange)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(arenas[1].Slab, encodeLens(arenas[1].BitLens), encodeOrder(order))
	// The labeling and the same shard laid out in id order, where a rank is
	// no identifier: both refused.
	idLab := relayout(f, lab, nil)
	idSlab, _, _ := idLab.ArenaLayout()
	stripped, strippedLens := stripForeign(f, idSlab, idLab.BitLens(), nil, ShardMap{Count: 3, Index: 1, Fn: ShardRange})
	for _, id := range []struct {
		slab    []byte
		bitLens []int
	}{{idSlab, idLab.BitLens()}, {stripped, strippedLens}} {
		if _, err := NewQueryEngineFromPermutedArena(id.slab, id.bitLens, nil); !errors.Is(err, ErrBadLabel) {
			f.Fatalf("an id-ordered slab: build err %v, want ErrBadLabel", err)
		}
		f.Add(id.slab, encodeLens(id.bitLens), none)
	}

	f.Fuzz(func(t *testing.T, slab []byte, lensBytes []byte, orderBytes []byte) {
		bitLens := decodeLens(lensBytes)
		order := decodeOrder(orderBytes)
		eng, err := NewQueryEngineFromPermutedArena(slab, bitLens, order)
		if err != nil {
			return // rejected at build time: exactly what corrupt headers should get
		}
		n := eng.N()
		if n == 0 {
			if _, err := eng.Adjacent(0, 0); err == nil {
				t.Fatal("empty engine accepted a query")
			}
			return
		}
		// Probe a spread of pairs, the out-of-range ones last; answers may be
		// garbage relative to any graph (the slab is noise), but every call
		// must return without panicking and errors must be range or label
		// errors, never index faults.
		pairs := [][2]int{{0, 0}, {0, n - 1}, {n - 1, 0}, {n / 2, n / 3}}
		for i := 0; i < n && i < 70; i++ {
			pairs = append(pairs, [2]int{i, (i * 7) % n}, [2]int{(i * 5) % n, i})
		}
		pairs = append(pairs, [2]int{-1, 0}, [2]int{0, n}, [2]int{n, n})
		// The reference decoder over the same labels is the oracle outside the
		// engine: the scalar probe and the kernel share the record-held list
		// path, so a bug there would agree with itself.
		labels, absent := fuzzLabels(t, slab, bitLens, order)
		fat := 0
		for _, l := range labels {
			fat += int(l.MustPeekUint(0, 1))
		}
		if eng.FatCount() != fat {
			t.Fatalf("FatCount = %d over %d fat labels", eng.FatCount(), fat)
		}
		dec := NewFatThinDecoder(n)
		// The batch kernel against the scalar probe: the same answers up to the
		// first failing pair, and the same error there.
		var want []bool
		var wantErr error
		for _, p := range pairs {
			ans, err := eng.Adjacent(p[0], p[1])
			if p[0] >= 0 && p[0] < n && p[1] >= 0 && p[1] < n {
				ref, refErr := dec.Adjacent(labels[p[0]], labels[p[1]])
				bitmap := labels[p[0]].MustPeekUint(0, 1)&labels[p[1]].MustPeekUint(0, 1) == 1 ||
					labels[p[0]].MustPeekUint(1, eng.w) == labels[p[1]].MustPeekUint(1, eng.w)
				switch {
				case absent && err == nil && !bitmap:
					t.Fatalf("pair %v: engine holding absent labels answered %v from a thin label", p, ans)
				case absent && errors.Is(err, ErrNotResident):
				case ans != ref || fmt.Sprint(err) != fmt.Sprint(refErr):
					t.Fatalf("pair %v: engine %v, %v; FatThinDecoder %v, %v", p, ans, err, ref, refErr)
				}
			} else if !errors.Is(err, ErrVertexRange) {
				t.Fatalf("pair %v out of range: err %v", p, err)
			}
			if err != nil {
				wantErr = fmt.Errorf("core: query (%d,%d): %w", p[0], p[1], err)
				break
			}
			want = append(want, ans)
		}
		got, gotErr := eng.AdjacentMany(pairs, nil)
		if !slices.Equal(got, want) || gotErr.Error() != wantErr.Error() {
			t.Fatalf("AdjacentMany = %v, %v; Adjacent pair by pair = %v, %v", got, gotErr, want, wantErr)
		}
	})
}

// fuzzLabelBytes is what labels of bitLens occupy in a slab before its tail
// is padded to a word.
func fuzzLabelBytes(bitLens []int) int {
	size := 0
	for _, bits := range bitLens {
		size += bitstr.SlabLabelBytes(bits)
	}
	return size
}

// fuzzLabels cuts the labels of a slab the engine accepted out of a copy of
// it (Wrap masks padding in place; the fuzz input stays untouched). An
// absent label is given its header stub, thin with its rank for identifier,
// and absent reports whether there was one.
func fuzzLabels(t *testing.T, slab []byte, bitLens []int, order []int32) (labels []bitstr.String, absent bool) {
	t.Helper()
	slab = slices.Clone(slab)
	labels = make([]bitstr.String, len(bitLens))
	w := bitstr.WidthFor(uint64(len(bitLens)))
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	for r := 0; walk.Next(); r++ {
		v, off := walk.Label()
		if bitLens[v] == 0 {
			var b bitstr.Builder
			b.AppendBit(false)
			b.AppendUint(uint64(r), w)
			labels[v], absent = b.String(), true
			continue
		}
		start := off >> 3
		l, err := bitstr.Wrap(slab[start:start+int64(bitstr.SlabLabelBytes(bitLens[v]))], bitLens[v])
		if err != nil {
			t.Fatal(err)
		}
		labels[v] = l
	}
	if err := walk.Err(); err != nil {
		t.Fatal(err)
	}
	return labels, absent
}
