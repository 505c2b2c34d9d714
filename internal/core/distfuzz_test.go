package core_test

// The distance-plane twin of FuzzQueryEngineHeaders. It lives in the
// external test package because the seeds come from the real distance
// encoders (internal/schemes/distance imports core, so an in-package seed
// would be an import cycle).

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/distance"
)

// encodeFuzzInts packs ints as uvarints — the labelstore's wire shape for
// both bit lengths and permutation entries, so mutations explore realistic
// header corruptions.
func encodeFuzzInts(vals []int) []byte {
	out := make([]byte, 0, len(vals))
	var buf [binary.MaxVarintLen64]byte
	for _, v := range vals {
		out = append(out, buf[:binary.PutUvarint(buf[:], uint64(v))]...)
	}
	return out
}

// decodeFuzzInts is the inverse, deliberately unsanitized (bad values must
// be rejected by the engine, not the harness); only the count is capped.
func decodeFuzzInts(data []byte) []int {
	const maxFuzzLabels = 1 << 12
	var vals []int
	for len(data) > 0 && len(vals) < maxFuzzLabels {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		vals = append(vals, int(v))
	}
	return vals
}

// vertexOrdered lays a's labels out again in vertex order, with a nil order.
func vertexOrdered(a *core.DistArena) *core.DistArena {
	labels := make([]bitstr.String, len(a.BitLens))
	walk := bitstr.NewSlabWalk(len(a.Slab), a.BitLens, a.Order)
	for walk.Next() {
		v, off := walk.Label()
		labels[v] = bitstr.SlabLabel(a.Slab, off, a.BitLens[v])
	}
	slab, bitLens := bitstr.PackSlab(labels)
	return &core.DistArena{Slab: slab, BitLens: bitLens, Params: a.Params}
}

// FuzzDistEngineHeaders hammers NewDistEngineFromArena with raw slab bytes,
// header-declared bit lengths, a layout permutation, and engine parameters.
// The property: for ANY input, construction either errors or yields an
// engine whose distance queries never panic or read out of bounds and
// answer exactly what the checked reference walk (RefDist) reads from the
// same bits — error or correct answer. Build-time validation is the only
// line of defense: the PLL kernel reads the hub table construction
// decoded, and the bounded kernel the slab, both unchecked by design. Each
// accepted engine answers its pairs twice, in order and reversed, to catch
// a scratch slot one query leaves dirty for the next.
// Seeds are real pll and bounded labelings, as encoded and laid out again in
// vertex order (the nil order older stores carry), so the corpus starts valid
// and mutates outward.
func FuzzDistEngineHeaders(f *testing.F) {
	g, err := gen.ChungLuPowerLaw(150, 2.5, 2, 17)
	if err != nil {
		f.Fatal(err)
	}
	seed := func(a *core.DistArena) {
		order := make([]int, len(a.Order))
		for i, v := range a.Order {
			order[i] = int(v)
		}
		// Each labeling three times: as encoded, with stray bytes after the
		// slab's last whole word, and cut back to its labels' last byte, so
		// that the last label ends in a partial word.
		labelBytes := 0
		for _, bits := range a.BitLens {
			labelBytes += (bits + 7) / 8
		}
		for _, slab := range [][]byte{a.Slab, append(slices.Clone(a.Slab), 0xa5, 0x5a, 0xff), a.Slab[:labelBytes]} {
			f.Add(slab, encodeFuzzInts(a.BitLens), encodeFuzzInts(order),
				byte(a.Params.Kind), a.Params.DW, a.Params.F, a.Params.NFat)
		}
	}
	pll, err := distance.PLLScheme{}.EncodeArena(g, 1, core.LayoutDegree)
	if err != nil {
		f.Fatal(err)
	}
	bdist, err := distance.Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 1, core.LayoutDegree)
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range []*core.DistArena{pll, bdist} {
		seed(a)
		seed(vertexOrdered(a))
	}
	// Hub ranks on both sides of the hub records' 256-hub head, a list
	// ending at rank 255 and one starting at 256 among them.
	cross := make([][]core.DistEntry, 300)
	for v := range cross {
		cross[v] = []core.DistEntry{{ID: int32(v % 7), D: 1}, {ID: int32(250 + v%6), D: 2}}
		if v%5 != 0 {
			cross[v] = append(cross[v], core.DistEntry{ID: int32(256 + v%40), D: 3})
		}
		if v%11 == 0 {
			cross[v] = cross[v][2:]
		}
	}
	crossArena, err := core.EncodePLLArena(cross, 3, nil, 1)
	if err != nil {
		f.Fatal(err)
	}
	seed(crossArena)
	f.Add([]byte{}, []byte{}, []byte{}, byte(1), 4, 0, 0)
	f.Add(make([]byte, 16), encodeFuzzInts([]int{9, 64}), []byte{}, byte(2), 3, 2, 1)
	f.Add(make([]byte, 11), encodeFuzzInts([]int{9, 64}), []byte{}, byte(2), 3, 2, 1)

	f.Fuzz(func(t *testing.T, slab, lensBytes, orderBytes []byte, kind byte, dw, fBound, nFat int) {
		bitLens := decodeFuzzInts(lensBytes)
		var order []int32
		if ints := decodeFuzzInts(orderBytes); len(ints) > 0 {
			order = make([]int32, len(ints))
			for i, v := range ints {
				order[i] = int32(v)
			}
		}
		p := core.DistParams{Kind: core.DistKind(kind), DW: dw, F: fBound, NFat: nFat}
		eng, err := core.NewDistEngineFromArena(slab, bitLens, order, p)
		if err != nil {
			return // rejected at build time: exactly what corrupt headers should get
		}
		rd, err := core.NewRefDist(eng, bitLens, order)
		if err != nil {
			t.Fatalf("accepted engine, reference walk: %v", err)
		}
		n := eng.N()
		if n == 0 {
			if _, err := eng.Dist(0, 0); err == nil {
				t.Fatal("empty engine accepted a query")
			}
			return
		}
		// Probe a spread of pairs, including out-of-range ones; answers may be
		// garbage relative to any graph (the slab is noise), but every call
		// must return without panicking, errors must be range errors, and any
		// accepted answer must be the one the reference walk decodes.
		pairs := [][2]int{{0, 0}, {0, n - 1}, {n - 1, 0}, {n / 2, n / 3}}
		for i := 0; i < n && i < 32; i++ {
			pairs = append(pairs, [2]int{i, (i * 7) % n})
		}
		for _, bad := range [][2]int{{-1, 0}, {0, n}, {n, n}} {
			if _, err := eng.Dist(bad[0], bad[1]); !errors.Is(err, core.ErrVertexRange) {
				t.Fatalf("dist(%d,%d): err = %v, want a range error", bad[0], bad[1], err)
			}
		}
		// The batch kernel (DistMany runs DistSpan) answers exactly like the
		// scalar path, and both like the reference walk.
		batch, err := eng.DistMany(pairs, nil)
		if err != nil {
			t.Fatalf("accepted engine, DistMany: %v", err)
		}
		for i, pr := range pairs {
			d, err := eng.Dist(pr[0], pr[1])
			if err != nil {
				t.Fatalf("accepted engine, dist(%d,%d): %v", pr[0], pr[1], err)
			}
			want, err := rd.Dist(pr[0], pr[1])
			if err != nil {
				t.Fatalf("accepted engine, reference dist(%d,%d): %v", pr[0], pr[1], err)
			}
			if d != want || batch[i] != want {
				t.Fatalf("dist(%d,%d) = %d, DistMany %d, reference walk %d", pr[0], pr[1], d, batch[i], want)
			}
		}
		// The same pairs in reverse order, so each pair follows different
		// ones: a scratch slot one pair left dirty would move a later answer.
		reversed := slices.Clone(pairs)
		slices.Reverse(reversed)
		again, err := eng.DistMany(reversed, nil)
		if err != nil {
			t.Fatalf("accepted engine, reversed DistMany: %v", err)
		}
		for i, d := range again {
			if j := len(pairs) - 1 - i; d != batch[j] {
				t.Fatalf("dist%v = %d in the reversed batch, %d in order", pairs[j], d, batch[j])
			}
		}
		// A failing pair ends the batch at its index, answers before it kept.
		short, err := eng.DistMany(append(pairs[:2:2], [2]int{0, n}, pairs[2]), nil)
		if !errors.Is(err, core.ErrVertexRange) || len(short) != 2 || short[0] != batch[0] || short[1] != batch[1] {
			t.Fatalf("DistMany over a bad pair: %v, %v; want the 2 answers before it and a range error", short, err)
		}
	})
}
