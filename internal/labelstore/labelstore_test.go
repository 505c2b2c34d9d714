package labelstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
)

// packedFile builds the store of a labeling handed over label by label, in
// vertex order, as pllabel stores nbrlist.
func packedFile(t testing.TB, scheme string, params map[string]string, labels []bitstr.String) *File {
	t.Helper()
	slab, bitLens := bitstr.PackSlab(labels)
	f, err := NewPermutedArenaFile(scheme, params, slab, bitLens, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sampleFile returns a packed store and the labels it was packed from.
func sampleFile(t testing.TB) (*File, []bitstr.String) {
	t.Helper()
	g := gen.ErdosRenyi(50, 0.1, 1)
	lab, err := core.NewSparseScheme(2).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]bitstr.String, g.N())
	for v := 0; v < g.N(); v++ {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		labels[v] = l
	}
	return packedFile(t, lab.Scheme(), map[string]string{"n": "50"}, labels), labels
}

// vertexOrder lays the labels of slab (bitLens, order) out again in vertex
// order, as stores written before the degree layout hold them.
func vertexOrder(t testing.TB, slab []byte, bitLens []int, order []int32) []byte {
	t.Helper()
	labels := make([]bitstr.String, len(bitLens))
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	for walk.Next() {
		v, off := walk.Label()
		labels[v] = bitstr.SlabLabel(slab, off, bitLens[v])
	}
	if err := walk.Err(); err != nil {
		t.Fatal(err)
	}
	packed, _ := bitstr.PackSlab(labels)
	return packed
}

// v1Image hand-builds the retired version-1 container over labels: the same
// header, then per label a uvarint bit length and its ceil(len/8) bytes.
func v1Image(scheme string, labels []bitstr.String) []byte {
	img := append([]byte("PLLB"), 1)
	img = binary.AppendUvarint(img, uint64(len(scheme)))
	img = append(img, scheme...)
	img = binary.AppendUvarint(img, 0) // no params
	img = binary.AppendUvarint(img, uint64(len(labels)))
	for _, l := range labels {
		img = binary.AppendUvarint(img, uint64(l.Len()))
		img = append(img, l.Bytes()...)
	}
	return img
}

func TestRoundTrip(t *testing.T) {
	f, labels := sampleFile(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != f.Scheme {
		t.Errorf("scheme %q, want %q", got.Scheme, f.Scheme)
	}
	if got.Params["n"] != "50" {
		t.Errorf("params = %v", got.Params)
	}
	if got.N() != f.N() {
		t.Fatalf("N = %d, want %d", got.N(), f.N())
	}
	for i := range labels {
		if !got.Labels[i].Equal(labels[i]) {
			t.Fatalf("label %d differs after round trip", i)
		}
	}
}

func TestRoundTripDecodes(t *testing.T) {
	// Labels loaded from disk must still answer queries.
	g := gen.ErdosRenyi(40, 0.15, 2)
	lab, err := core.NewSparseScheme(2).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]bitstr.String, g.N())
	for v := range labels {
		labels[v], err = lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, packedFile(t, "sparse", map[string]string{"n": "40"}, labels)); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, err := loaded.IntParam("n")
	if err != nil {
		t.Fatal(err)
	}
	dec := core.NewFatThinDecoder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			got, err := dec.Adjacent(loaded.Labels[u], loaded.Labels[v])
			if err != nil {
				t.Fatal(err)
			}
			if got != g.HasEdge(u, v) {
				t.Fatalf("loaded labels wrong at (%d,%d)", u, v)
			}
		}
	}
}

func TestIntParam(t *testing.T) {
	f := &File{Params: map[string]string{"n": "7", "bad": "x"}}
	if v, err := f.IntParam("n"); err != nil || v != 7 {
		t.Errorf("IntParam(n) = %d, %v", v, err)
	}
	if _, err := f.IntParam("missing"); !errors.Is(err, ErrFormat) {
		t.Errorf("missing param err = %v", err)
	}
	if _, err := f.IntParam("bad"); !errors.Is(err, ErrFormat) {
		t.Errorf("bad param err = %v", err)
	}
}

// garbageImages are short and malformed store images that both entry points
// of the parser must refuse with ErrFormat.
var garbageImages = []string{
	"",
	"XXXX",
	"PLLB",            // truncated after magic
	"PLLB\x09",        // bad version
	"PLLB\x02\x05abc", // truncated scheme string
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, in := range garbageImages {
		if _, err := Read(strings.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("Read %q: err = %v, want ErrFormat", in, err)
		}
	}
}

func TestReadBytesRejectsGarbage(t *testing.T) {
	for _, in := range garbageImages {
		if _, err := ReadBytes([]byte(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("ReadBytes %q: err = %v, want ErrFormat", in, err)
		}
	}
}

func TestReadTruncatedLabels(t *testing.T) {
	f, _ := sampleFile(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)-3])); !errors.Is(err, ErrFormat) {
		t.Errorf("truncated file err = %v", err)
	}
}

// TestEmptyFile: a store of zero labels round-trips; a File assembled by hand,
// with no arena, is refused by Write.
func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &File{Scheme: "x", Labels: []bitstr.String{{}}}); err == nil {
		t.Fatal("Write accepted a File with no arena")
	}
	buf.Reset()
	if err := Write(&buf, packedFile(t, "x", nil, nil)); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 || got.Scheme != "x" {
		t.Errorf("empty store: %+v", got)
	}
}

// Property: arbitrary label payloads round-trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(payloads [][]byte, trims []uint8) bool {
		labels := make([]bitstr.String, len(payloads))
		for i, p := range payloads {
			var b bitstr.Builder
			for _, by := range p {
				b.AppendUint(uint64(by), 8)
			}
			// Trim to a ragged bit length.
			if len(trims) > 0 {
				t := int(trims[i%len(trims)]) % 8
				for j := 0; j < t; j++ {
					b.AppendBit(j%2 == 0)
				}
			}
			labels[i] = b.String()
		}
		var buf bytes.Buffer
		if err := Write(&buf, packedFile(t, "q", nil, labels)); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.N() != len(labels) {
			return false
		}
		for i := range labels {
			if !got.Labels[i].Equal(labels[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestArenaReadRoundTrip: labels packed one by one into a store come back as
// views of one shared slab; the views must be bit-identical to the originals
// (including odd bit lengths that leave padding in the final byte) and,
// laid out in the labeling's order, must answer queries correctly through a
// core.QueryEngine built over them.
func TestArenaReadRoundTrip(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(300, 2.5, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]bitstr.String, g.N())
	for v := range labels {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		labels[v] = l
	}
	f := packedFile(t, lab.Scheme(), map[string]string{"n": "300"}, labels)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range labels {
		if !got.Labels[i].Equal(labels[i]) {
			t.Fatalf("label %d differs after arena round trip", i)
		}
	}
	// Labels with i>0 share the slab with label 0 (single allocation): the
	// second label's backing array must sit inside the same slab as the
	// first non-empty one. We can't compare pointers across allocations
	// portably, so instead assert the functional property: a query engine
	// over the arena views answers exactly like the original labeling.
	// The engine takes the views laid out again in the labeling's order,
	// whose rank is each label's identifier.
	_, order, _ := lab.ArenaLayout()
	physical := make([]bitstr.String, len(order))
	for r, v := range order {
		physical[r] = got.Labels[v]
	}
	slab, _ := bitstr.PackSlab(physical)
	eng, err := core.NewQueryEngineFromPermutedArena(slab, lab.BitLens(), order)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			want, err := lab.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			gotAdj, err := eng.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if gotAdj != want {
				t.Fatalf("arena engine (%d,%d) = %v, want %v", u, v, gotAdj, want)
			}
		}
	}
}

// TestSlabRoundTrip: a pipeline-built labeling laid out in vertex order — an
// id-ordered whole fat/thin store, as pllabel wrote before the degree layout
// — round-trips through the store: labels bit-identical and arena recovered.
// No engine serves it: Engines refuses the stale store (re-run pllabel), and
// an engine built straight over the loaded blob refuses its first label
// whose identifier is not its rank.
func TestSlabRoundTrip(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(500, 2.4, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.4).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	origLabels := make([]bitstr.String, g.N())
	for v := range origLabels {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		origLabels[v] = l
	}
	slab, bitLens := bitstr.PackSlab(origLabels) // vertex order, as older stores hold it
	f, err := NewPermutedArenaFile(lab.Scheme(), map[string]string{"n": "500"}, slab, bitLens, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	// The v2 body is the slab verbatim: the file carries exactly one blob of
	// len(slab) bytes (plus a small header), not n padded payloads.
	if buf.Len() >= len(slab)+len(slab)/8+256 {
		t.Errorf("v2 file is %d bytes for a %d-byte slab", buf.Len(), len(slab))
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != lab.Scheme() || got.N() != g.N() {
		t.Fatalf("loaded scheme=%q n=%d", got.Scheme, got.N())
	}
	for v := range origLabels {
		if !got.Labels[v].Equal(origLabels[v]) {
			t.Fatalf("label %d differs after v2 round trip", v)
		}
	}
	gotSlab, gotLens, _, ok := got.ArenaLayout()
	if !ok {
		t.Fatal("v2 store lost its arena")
	}
	if !bytes.Equal(gotSlab, slab) {
		t.Fatal("v2 blob differs from the encoder's slab")
	}
	if _, _, err := got.Engines(); err == nil || !strings.Contains(err.Error(), "re-run pllabel") {
		t.Fatalf("Engines over an id-ordered fat/thin store: err = %v, want a refusal naming re-run pllabel", err)
	}
	if _, err := core.NewQueryEngineFromPermutedArena(gotSlab, gotLens, nil); !errors.Is(err, core.ErrBadLabel) || !strings.Contains(err.Error(), "not its rank") {
		t.Fatalf("engine over the id-ordered blob: err = %v, want ErrBadLabel naming a label whose identifier is not its rank", err)
	}
}

// TestVersion1Rejected: the per-label container is retired. Read, ReadBytes
// and Open all refuse a version-1 image with ErrFormat naming the version,
// before parsing anything behind it — so whatever layout, shards or scheme it
// declares is refused with it. The same readers refuse a shard store of the
// retired hash ownership function by its ownership byte, naming it, an
// id-ordered shard store, whose absent labels would have no identifier, and a
// whole or shard store whose permutation block is the retired ⌈log₂ n⌉-bit
// identifier block (layout "degree"), by that layout. (A shard store whose
// foreign thin labels are header stubs loads, and Engines refuses it:
// TestEnginesShardRefusals.)
func TestVersion1Rejected(t *testing.T) {
	_, labels := sampleFile(t)
	g, err := gen.ChungLuPowerLaw(60, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := permutedStore(t, g)
	shards, _ := shardStores(t, g, 3)
	const degreeRefused = `layout "degree": the ⌈log₂ n⌉-bit permutation block is retired for the run-coded one (re-run pllabel)`
	for _, img := range []struct {
		name, want string
		data       []byte
	}{
		{"version-1", "unsupported version 1", v1Image("sparse(c=2)", labels)},
		{"hash-owned shard", "hash is retired (re-run pllabel -shards)", hashOwnedImage(t, g)},
		{"id-ordered shard", "carries the degree layout (re-run pllabel -shards)", retiredShardImage(t, g, true)},
		{"layout=degree", degreeRefused, degreeLayoutImage(t, whole)},
		{"layout=degree shard", degreeRefused, degreeLayoutImage(t, shards[2])},
	} {
		for _, r := range []struct {
			name string
			load func() (*File, error)
		}{
			{"Read", func() (*File, error) { return Read(bytes.NewReader(img.data)) }},
			{"ReadBytes", func() (*File, error) { return ReadBytes(img.data) }},
			{"Open", func() (*File, error) {
				mf, err := Open(writeTemp(t, img.data))
				if err != nil {
					return nil, err
				}
				mf.Close()
				return mf.File, nil
			}},
		} {
			if _, err := r.load(); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), img.want) {
				t.Errorf("%s on a %s image: err = %v, want ErrFormat naming %q", r.name, img.name, err, img.want)
			}
		}
	}
}

// TestSlabReadRejectsCorruption: v2-specific failure modes — truncated blob,
// blob length disagreeing with the bit lengths — must surface as ErrFormat.
func TestSlabReadRejectsCorruption(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(100, 2.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	f, err := NewPermutedArenaFile(lab.Scheme(), nil, slab, lab.BitLens(), order)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)-5])); !errors.Is(err, ErrFormat) {
		t.Errorf("truncated v2 blob: err = %v, want ErrFormat", err)
	}
	// Corrupt the last bit-length uvarint region so lengths and blob size
	// disagree. The blob length field sits right before the blob.
	bad := append([]byte(nil), data...)
	bad[len(bad)-len(slab)-1] ^= 0x01 // perturb blob length varint
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Errorf("mismatched v2 blob length: err = %v, want ErrFormat", err)
	}
}

// TestNewArenaFileValidates: for an id-ordered slab (order nil),
// slab/length mismatches are rejected up front.
func TestNewArenaFileValidates(t *testing.T) {
	if _, err := NewPermutedArenaFile("x", nil, make([]byte, 8), []int{65}, nil); err == nil {
		t.Error("oversized label accepted")
	}
	if _, err := NewPermutedArenaFile("x", nil, make([]byte, 24), []int{64}, nil); err == nil {
		t.Error("trailing slab bytes accepted")
	}
	f, err := NewPermutedArenaFile("x", nil, make([]byte, 16), []int{3, 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, bitLens, order, ok := f.ArenaLayout(); !ok || f.N() != 2 || bitLens[0] != 3 || bitLens[1] != 64 || order != nil {
		t.Errorf("N = %d, arena lengths %v, order %v (ok=%v)", f.N(), bitLens, order, ok)
	}
}

// TestArenaReadMasksDirtyPadding: files written by other producers may
// carry garbage in the padding bits of a label's final byte; Read must
// zero them so Equal and lexicographic comparisons behave.
func TestArenaReadMasksDirtyPadding(t *testing.T) {
	var b bitstr.Builder
	b.AppendUint(0b10110, 5)
	clean := b.String()
	var buf bytes.Buffer
	if err := Write(&buf, packedFile(t, "x", map[string]string{}, []bitstr.String{clean})); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The blob is the label's one slab word, the file's last 8 bytes; dirty
	// the padding of its first byte.
	raw[len(raw)-8] |= 0x07
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Labels[0].Equal(clean) {
		t.Fatalf("dirty padding leaked: got %v, want %v", got.Labels[0], clean)
	}
}
