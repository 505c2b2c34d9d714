package labelstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// permutedStore encodes g degree-ordered and returns the store file plus the
// labeling it came from.
func permutedStore(t testing.TB, g *graph.Graph) (*File, *core.Labeling) {
	t.Helper()
	s := core.NewPowerLawScheme(2.5)
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, ok := lab.ArenaLayout()
	if !ok {
		t.Fatal("pipeline labeling is not arena-backed")
	}
	if order == nil {
		t.Fatal("degree layout produced no permutation")
	}
	bitLens := make([]int, g.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		bitLens[v] = l.Len()
	}
	f, err := NewPermutedArenaFile(lab.Scheme(), map[string]string{"n": strconv.Itoa(g.N())}, slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	return f, lab
}

// TestPermutedRoundTrip checks that a degree-ordered store survives both the
// copying and the zero-copy entry point with its permutation intact: every label
// read back is byte-equal to the logical label, and the reconstructed engine
// answers exactly the graph's adjacency.
func TestPermutedRoundTrip(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(300, 2.5, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, lab := permutedStore(t, g)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, r := range []struct {
		name string
		load func() (*File, error)
	}{
		{"Read", func() (*File, error) { return Read(bytes.NewReader(data)) }},
		{"ReadBytes", func() (*File, error) { return ReadBytes(data) }},
	} {
		t.Run(r.name, func(t *testing.T) {
			got, err := r.load()
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.N(); v++ {
				want, err := lab.Label(v)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Labels[v].Equal(want) {
					t.Fatalf("label %d differs after round trip", v)
				}
			}
			slab, bitLens, order, ok := got.ArenaLayout()
			if !ok {
				t.Fatal("loaded store is not arena-backed")
			}
			if order == nil {
				t.Fatal("loaded store lost its layout permutation")
			}
			eng, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < g.N(); u++ {
				for _, v := range g.Neighbors(u) {
					adj, err := eng.Adjacent(u, int(v))
					if err != nil {
						t.Fatal(err)
					}
					if !adj {
						t.Fatalf("edge (%d,%d) answered false", u, v)
					}
				}
			}
		})
	}
}

// TestPermutationBlockSpansWriteBuffer writes a permutation block larger than
// Write's buffer (a random order of 2^19 labels has about 2^18 runs, so 2^19
// run fields of 18 bits), so the block outgrows the buffer's free space while
// the header before it sits in the buffer, and reads every entry back.
func TestPermutationBlockSpansWriteBuffer(t *testing.T) {
	const n = 1 << 19
	bitLens := make([]int, n)
	size := 0
	for v := range bitLens {
		bitLens[v] = 1 + v%13
		size += bitstr.SlabLabelBytes(bitLens[v])
	}
	order := make([]int32, n)
	for r, v := range rand.New(rand.NewSource(9)).Perm(n) {
		order[r] = int32(v)
	}
	if size := len(core.AppendPermutation(nil, order)); size <= writeBuffer {
		t.Fatalf("a %d-byte block fits the %d-byte write buffer", size, writeBuffer)
	}
	f, err := NewPermutedArenaFile("test", nil, make([]byte, bitstr.SlabSize(size)), bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, gotOrder, _ := got.ArenaLayout(); !slices.Equal(gotOrder, order) {
		t.Fatal("permutation differs after round trip")
	}
}

// TestPermutedStoreArenaHidden: a permuted slab is only ever handed out
// together with its permutation — ArenaLayout must never report a permuted
// store as id-ordered, or a caller would misread every label offset.
func TestPermutedStoreArenaHidden(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(120, 2.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, lab := permutedStore(t, g)
	_, _, order, ok := f.ArenaLayout()
	if !ok {
		t.Fatal("ArenaLayout() should expose the permuted slab")
	}
	if len(order) != g.N() {
		t.Fatalf("ArenaLayout() handed out a permuted slab with a %d-entry order, want %d", len(order), g.N())
	}
	if _, want, _ := lab.ArenaLayout(); !slices.Equal(order, want) {
		t.Fatal("ArenaLayout() order differs from the encoder's")
	}
}

// permBlockRange locates the [start, end) byte range of the permutation
// block inside a serialized store image by walking the header fields in
// front of it.
func permBlockRange(t testing.TB, data []byte, n int) (int, int) {
	t.Helper()
	off := 5 // magic + version
	uv := func(what string) uint64 {
		v, k := binary.Uvarint(data[off:])
		if k <= 0 {
			t.Fatalf("parsing %s at offset %d", what, off)
		}
		off += k
		return v
	}
	skipString := func(what string) { off += int(uv(what)) }
	skipString("scheme")
	nParams := uv("param count")
	for i := uint64(0); i < nParams; i++ {
		skipString("param key")
		skipString("param value")
	}
	if got := uv("label count"); int(got) != n {
		t.Fatalf("label count %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		uv("label length")
	}
	return off, permBlockEnd(t, data, off, n)
}

// permBlockEnd returns the offset just past the permutation block over n
// labels that starts at off.
func permBlockEnd(t testing.TB, data []byte, off, n int) int {
	t.Helper()
	_, size, err := core.DecodePermutation(data[off:], n)
	if err != nil {
		t.Fatal(err)
	}
	return off + size
}

// TestPermutationCorruptionErrors is the load-time safety property of the
// permutation block: any truncation inside it, and any single corrupted byte
// of it, must make both readers fail — a damaged permutation may never load
// and silently mis-answer. (A corrupted byte breaks the uvarint framing, a
// run length, a field's range, a run's count, a descent at a run boundary or
// the padding; all are checked at load.)
func TestPermutationCorruptionErrors(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(60, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := permutedStore(t, g)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	start, end := permBlockRange(t, data, g.N())
	if start >= end {
		t.Fatalf("degenerate perm block [%d,%d)", start, end)
	}
	// Sanity: the intact image still parses.
	if _, err := ReadBytes(data); err != nil {
		t.Fatal(err)
	}
	for cut := start; cut < end; cut++ {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("Read accepted a store truncated at byte %d (perm block [%d,%d))", cut, start, end)
		}
		if _, err := ReadBytes(data[:cut]); err == nil {
			t.Fatalf("ReadBytes accepted a store truncated at byte %d", cut)
		}
	}
	for i := start; i < end; i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0xFF
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("Read accepted a store with perm byte %d corrupted", i)
		}
		if _, err := ReadBytes(bad); !errors.Is(err, ErrFormat) {
			t.Fatalf("ReadBytes of a store with perm byte %d corrupted: err = %v, want ErrFormat", i, err)
		}
	}
}

// TestNewPermutedArenaFileValidates rejects malformed permutations at
// construction: wrong length, out-of-range entries, duplicates
// (TestNewArenaFileValidates has the nil order's slab/length checks).
func TestNewPermutedArenaFileValidates(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(80, 2.5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := permutedStore(t, g)
	slab, bitLens, order, ok := f.ArenaLayout()
	if !ok || len(order) != g.N() {
		t.Fatalf("permuted store: ArenaLayout ok=%v with a %d-entry order", ok, len(order))
	}
	params := map[string]string{"n": strconv.Itoa(g.N())}
	cases := map[string][]int32{
		"short":        order[:len(order)-1],
		"out-of-range": append(append([]int32{}, order[:len(order)-1]...), int32(len(order))),
		"duplicate":    append(append([]int32{}, order[:len(order)-1]...), order[0]),
	}
	for name, bad := range cases {
		if _, err := NewPermutedArenaFile(f.Scheme, params, slab, bitLens, bad); err == nil {
			t.Errorf("%s permutation accepted", name)
		}
	}
}

// TestV2WithoutPermutationBackCompat: id-ordered v2 stores carry no
// permutation block and must keep loading exactly as before the layout
// extension — no order, arena exposed by the plain accessor.
func TestV2WithoutPermutationBackCompat(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(100, 2.5, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	slab = vertexOrder(t, slab, lab.BitLens(), order)
	f, err := NewPermutedArenaFile(lab.Scheme(), map[string]string{"n": strconv.Itoa(g.N())}, slab, lab.BitLens(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, load := range []func() (*File, error){
		func() (*File, error) { return Read(bytes.NewReader(data)) },
		func() (*File, error) { return ReadBytes(data) },
	} {
		got, err := load()
		if err != nil {
			t.Fatal(err)
		}
		_, _, order, ok := got.ArenaLayout()
		if order != nil {
			t.Fatal("id-ordered store grew a permutation")
		}
		if !ok {
			t.Fatal("id-ordered v2 store hides its arena")
		}
		for v := 0; v < g.N(); v++ {
			want, err := lab.Label(v)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Labels[v].Equal(want) {
				t.Fatalf("label %d differs", v)
			}
		}
	}
}

// packFields packs vs at width bits each, MSB first, the last byte's tail
// zero.
func packFields(vs []int32, width int) []byte {
	size := (len(vs)*width + 7) >> 3
	block := make([]byte, size+8) // the writer stores whole words
	sw := bitstr.NewSlabWriter(block)
	sw.WriteUints32(vs, width)
	sw.Flush()
	return block[:size]
}

// identifierBlock is the permutation block stores carried under layout
// "degree": n entries of ⌈log₂ n⌉ bits.
func identifierBlock(order []int32) []byte {
	return packFields(order, bitstr.WidthFor(uint64(len(order))))
}

// degreeLayoutImage is f, a permuted store, as a pllabel before the run-coded
// block wrote it: layout "degree" and the identifier block in its place.
func degreeLayoutImage(t testing.TB, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	start, end := permBlockRange(t, img, f.N())
	runs, degree := []byte("\x06layout\x04runs"), []byte("\x06layout\x06degree")
	if bytes.Count(img[:start], runs) != 1 {
		t.Fatalf("image does not declare layout %q once", layoutRuns)
	}
	out := bytes.Replace(img[:start:start], runs, degree, 1)
	out = append(out, identifierBlock(f.order)...)
	return append(out, img[end:]...)
}

// runBlock hand-builds a permutation block: the run count and lengths as
// given, then fields packed at width bits, the last byte's tail ORed with pad.
func runBlock(runs []uint64, fields []int32, width int, pad byte) []byte {
	block := binary.AppendUvarint(nil, uint64(len(runs)))
	for _, l := range runs {
		block = binary.AppendUvarint(block, l)
	}
	packed := packFields(fields, width)
	if len(packed) > 0 {
		packed[len(packed)-1] |= pad
	}
	return append(block, packed...)
}

// badPermutationBlocks are blocks the reader refuses, one per check, each
// with the words its error names.
var badPermutationBlocks = []struct {
	name, want string
	n          int
	block      []byte
}{
	{"not maximal", "do not descend", 5, runBlock([]uint64{2, 3}, []int32{0, 0, 1, 1, 1}, 1, 0)},
	{"field ≥ R", "in run 3 of 3", 5, runBlock([]uint64{2, 2, 1}, []int32{0, 3, 1, 1, 2}, 2, 0)},
	{"lengths sum short", "runs cover 4 of 5", 5, runBlock([]uint64{2, 2}, []int32{1, 1, 0, 0, 1}, 1, 0)},
	{"lengths sum long", "run 1 of length 4", 5, runBlock([]uint64{2, 4}, []int32{1, 1, 0, 0, 1}, 1, 0)},
	{"zero length", "run 0 of length 0", 5, runBlock([]uint64{0, 5}, []int32{1, 1, 1, 1, 1}, 1, 0)},
	{"run overfull", "more labels than its declared length", 5, runBlock([]uint64{2, 3}, []int32{1, 0, 0, 0, 1}, 1, 0)},
	{"nonzero padding", "nonzero padding", 4, runBlock([]uint64{2, 2}, []int32{1, 1, 0, 0}, 1, 0x01)},
	{"more runs than labels", "declares 3 runs", 2, runBlock([]uint64{1, 1, 1}, []int32{0, 1}, 2, 0)},
	{"no runs", "declares 0 runs", 2, []byte{0x00}},
	{"overlong run count", "overlong uvarint", 2, []byte{0x82, 0x00, 0x01, 0x01, 0x40}},
	{"overlong run length", "overlong uvarint", 2, []byte{0x02, 0x81, 0x00, 0x01, 0x40}},
	{"fields truncated", "run fields", 16, runBlock([]uint64{8, 8}, nil, 1, 0)},
	// Every field zero: the all-zero block, which names no permutation.
	{"all fields zero", "run 0 holds more labels", 4, runBlock([]uint64{2, 2}, []int32{0, 0, 0, 0}, 1, 0)},
}

// TestPermutationBlockRefusals: each of the decoder's checks refuses its
// block, by name (TestPermutationCorruptionErrors: a store refuses it with
// ErrFormat).
func TestPermutationBlockRefusals(t *testing.T) {
	for _, bad := range badPermutationBlocks {
		if order, _, err := core.DecodePermutation(bad.block, bad.n); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: order %v, err = %v, want a refusal naming %q", bad.name, order, err, bad.want)
		}
	}
}

// TestPermutationBlockRoundTrip: the block of every order shape decodes to
// that order, consuming exactly the block. A degree order costs a run field
// of ⌈log₂ R⌉ bits per label.
func TestPermutationBlockRoundTrip(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(3000, 2.5, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := permutedStore(t, g)
	random := make([]int32, 500)
	for r, v := range rand.New(rand.NewSource(3)).Perm(len(random)) {
		random[r] = int32(v)
	}
	for name, order := range map[string][]int32{
		"empty":     {},
		"single":    {0},
		"identity":  {0, 1, 2, 3, 4, 5, 6},
		"reversed":  {6, 5, 4, 3, 2, 1, 0},
		"two runs":  {3, 4, 5, 0, 1, 2},
		"random":    random,
		"degree":    f.order,
		"two descs": {1, 0, 3, 2},
	} {
		block := core.AppendPermutation(nil, order)
		got, size, err := core.DecodePermutation(block, len(order))
		if err != nil || !slices.Equal(got, order) || size != len(block) {
			t.Errorf("%s: decoded %v (%v) after %d of %d bytes", name, got, err, size, len(block))
		}
	}
	n, runs := len(f.order), core.PermutationRuns(f.order)
	size := len(core.AppendPermutation(nil, f.order))
	if fields := (n*bitstr.WidthFor(uint64(runs)) + 7) / 8; size > fields+2*runs+2 {
		t.Errorf("degree order of %d labels, %d runs: block of %d bytes, want about %d", n, runs, size, fields)
	}
	if runs >= n/4 {
		t.Errorf("degree order of %d labels has %d runs", n, runs)
	}
}

// FuzzPermutationBlock: any input either fails to decode as the permutation
// block over n labels, or decodes to a permutation whose re-encoding is the
// bytes the decoder consumed — a block has one decoding and an order one
// encoding. Seeds are real blocks, one with 0-bit fields (R = 1), the
// retired identifier block, and badPermutationBlocks: a run split that is not
// maximal, a field naming no run, run lengths that do not cover n, nonzero
// padding, overlong uvarints.
func FuzzPermutationBlock(f *testing.F) {
	g, err := gen.ChungLuPowerLaw(300, 2.5, 2, 6)
	if err != nil {
		f.Fatal(err)
	}
	degree, _ := permutedStore(f, g)
	add := func(n int, block []byte) { f.Add(uint16(n), block) }
	add(len(degree.order), core.AppendPermutation(nil, degree.order))
	add(len(degree.order), identifierBlock(degree.order))
	add(5, core.AppendPermutation(nil, []int32{0, 1, 2, 3, 4}))    // R = 1
	add(6, core.AppendPermutation(nil, []int32{3, 4, 5, 0, 1, 2})) // R = 2
	for _, bad := range badPermutationBlocks {
		add(bad.n, bad.block)
	}
	add(0, []byte{0x00})
	f.Fuzz(func(t *testing.T, n16 uint16, data []byte) {
		n := int(n16 % 4097)
		order, size, err := core.DecodePermutation(data, n)
		if err != nil {
			return
		}
		seen := make([]bool, n)
		for r, v := range order {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("decoded order repeats or leaves the range at rank %d: %d", r, v)
			}
			seen[v] = true
		}
		if re := core.AppendPermutation(nil, order); !bytes.Equal(re, data[:size]) {
			t.Fatalf("order of %d labels re-encodes to %x, decoded from %x", n, re, data[:size])
		}
	})
}
