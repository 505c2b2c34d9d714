package labelstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/schemes/distance"
)

// The set-up path's byte pins: the sha256 of every store file Write produces
// for one fixed graph, over {whole store, 3 range shards} × every scheme the
// constructors accept in that shape, and of every ShardLabelArenas output.
// Whatever the encoder, the shard split, the File constructors or Write do
// internally, these bytes — and with them store_bytes and label_bits_max —
// must not move.

// pinGraph is the fixed input of every pin.
func pinGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(500, 2.5, 2, 20250)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// labelingBitLens reads the id-indexed bit lengths off a labeling the way
// every caller of the store constructors can: one Label call per vertex.
func labelingBitLens(t *testing.T, lab *core.Labeling) []int {
	t.Helper()
	bitLens := make([]int, lab.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		bitLens[v] = l.Len()
	}
	return bitLens
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func writtenSha(t *testing.T, f *File) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return sha(buf.Bytes())
}

// shardArenaSha hashes everything a ShardArena carries.
func shardArenaSha(a core.ShardArena) string {
	buf := binary.AppendUvarint(nil, uint64(a.Owned))
	for _, bits := range a.BitLens {
		buf = binary.AppendUvarint(buf, uint64(bits))
	}
	return sha(append(buf, a.Slab...))
}

// labelsSha hashes labels alone: each one's bit length and bits, in id
// order. Where a slab puts a label, and how much padding follows it, does not
// enter it.
func labelsSha(labels []bitstr.String) string {
	var buf []byte
	for _, l := range labels {
		buf = binary.AppendUvarint(buf, uint64(l.Len()))
		buf = append(buf, l.Bytes()...)
	}
	return sha(buf)
}

// storeContentSha is labelsSha over the labels of the image Write produces,
// read back by Read (which masks each label's final byte) and cut from its
// arena, which every store has (a shard store carries no Labels).
func storeContentSha(t *testing.T, f *File) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	slab, bitLens, order, _ := got.ArenaLayout()
	return arenaContentSha(t, core.ShardArena{Slab: slab, BitLens: bitLens}, order)
}

// arenaContentSha is labelsSha over a shard arena's labels, cut from a copy
// of its slab at the offsets the walk hands out.
func arenaContentSha(t *testing.T, a core.ShardArena, order []int32) string {
	t.Helper()
	slab := slices.Clone(a.Slab)
	labels := make([]bitstr.String, len(a.BitLens))
	walk := bitstr.NewSlabWalk(len(slab), a.BitLens, order)
	for walk.Next() {
		v, off := walk.Label()
		l, err := bitstr.SlabView(slab, off, a.BitLens[v])
		if err != nil {
			t.Fatal(err)
		}
		labels[v] = l
	}
	if err := walk.Err(); err != nil {
		t.Fatal(err)
	}
	return labelsSha(labels)
}

// pinShards is the shard count of the pinned range partition.
const pinShards = 3

// pinStores computes every pinned hash, keyed scheme/layout/shape: the bytes
// of each output, and the content of its labels.
func pinStores(t *testing.T) (got, content map[string]string) {
	t.Helper()
	g := pinGraph(t)
	params := map[string]string{"n": strconv.Itoa(g.N())}
	got, content = map[string]string{}, map[string]string{}

	adj := map[string]func() (*core.Labeling, error){
		// The paper's both-ends lists: the bytes every store had before the
		// once layout existed, and still has under the option.
		"fatthin": func() (*core.Labeling, error) {
			s := core.NewPowerLawScheme(2.5)
			s.SetThinEdges(core.ThinEdgesBoth)
			return s.EncodeParallel(g, 0)
		},
		"fatthin-once": func() (*core.Labeling, error) {
			return core.NewPowerLawScheme(2.5).EncodeParallel(g, 0)
		},
		// The compressed scheme writes vertex order: its keys say "id".
		"compressed": func() (*core.Labeling, error) {
			return core.NewCompressedScheme(core.NewPowerLawScheme(2.5)).Encode(g)
		},
	}
	for name, encode := range adj {
		lab, err := encode()
		if err != nil {
			t.Fatal(err)
		}
		slab, order, ok := lab.ArenaLayout()
		if !ok {
			t.Fatalf("%s: labeling is not arena-backed", name)
		}
		bitLens := labelingBitLens(t, lab)
		key := name + "/degree"
		if order == nil {
			key = name + "/id"
		}
		f, err := NewPermutedArenaFile(lab.Scheme(), params, slab, bitLens, order)
		if err != nil {
			t.Fatal(err)
		}
		got[key+"/whole"] = writtenSha(t, f)
		content[key+"/whole"] = storeContentSha(t, f)
		shape := fmt.Sprintf("%s/range%d", key, pinShards)
		arenas, err := core.ShardLabelArenas(slab, bitLens, order, pinShards, core.ShardRange)
		if name == "compressed" {
			// Compressed thin bodies are not fat/thin neighbour lists, and
			// in its vertex-ordered slab a rank is not an identifier; the
			// split refuses it, and that refusal is part of the pin.
			if err == nil {
				t.Errorf("%s: ShardLabelArenas accepted the labels", shape)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range arenas {
			arenaKey, storeKey := fmt.Sprintf("%s/arena%d", shape, i), fmt.Sprintf("%s/store%d", shape, i)
			got[arenaKey] = shardArenaSha(a)
			content[arenaKey] = arenaContentSha(t, a, order)
			m := core.ShardMap{Count: pinShards, Index: i, Fn: core.ShardRange}
			f, err := NewShardArenaFile(lab.Scheme(), params, a.Slab, a.BitLens, order, m)
			if err != nil {
				t.Fatal(err)
			}
			got[storeKey] = writtenSha(t, f)
			content[storeKey] = storeContentSha(t, f)
		}
	}

	dist := map[string]func() (*core.DistArena, error){
		"pll": func() (*core.DistArena, error) { return distance.PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree) },
		"bdist": func() (*core.DistArena, error) {
			return distance.Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 0, core.LayoutDegree)
		},
	}
	for name, encode := range dist {
		a, err := encode()
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewDistArenaFile("dist-"+name, params, a)
		if err != nil {
			t.Fatal(err)
		}
		key := name + "/degree/whole"
		got[key] = writtenSha(t, f)
		content[key] = storeContentSha(t, f)
	}
	return got, content
}

// checkPins compares every hash of got with its pinned value and reports
// outputs that have none.
func checkPins(t *testing.T, procs int, what string, got, pinned map[string]string) {
	t.Helper()
	for key, want := range pinned {
		if got[key] != want {
			t.Errorf("GOMAXPROCS %d: %s %s = %q, pinned %q", procs, what, key, got[key], want)
		}
	}
	for key, sum := range got {
		if _, ok := pinned[key]; !ok {
			t.Errorf("GOMAXPROCS %d: unpinned %s %q: %q,", procs, what, key, sum)
		}
	}
}

// TestStoreBytesPinned compares every hash with its recorded value, once per
// GOMAXPROCS of 1, 2 and 7: whatever on the path fans out over that many
// goroutines (the encoders' fill phase, the shard split), the bytes may not
// depend on it. CI runs it under -race.
func TestStoreBytesPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		got, _ := pinStores(t)
		checkPins(t, procs, "bytes", got, pinnedStoreShas)
	}
}

// TestStoreContentPinned is the byte pins' alignment-free twin: the labels
// every output carries, bit for bit, wherever the slab puts them. A change
// to how labels are laid out moves the byte pins and must leave these alone.
func TestStoreContentPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		_, content := pinStores(t)
		checkPins(t, procs, "content", content, pinnedContentShas)
	}
}

// TestStoreVersion2Refused: each store shape — id-ordered, degree-ordered,
// a shard, pll, bdist — stamped with the retired word-aligned container's
// version number is refused by number by every reader, whatever its body.
func TestStoreVersion2Refused(t *testing.T) {
	g := pinGraph(t)
	params := map[string]string{"n": strconv.Itoa(g.N())}
	id, _ := sampleFile(t)
	degree, _ := permutedStore(t, g)
	shards, _ := shardStores(t, g, 3)
	files := map[string]*File{"id": id, "degree": degree, "shard": shards[1]}
	_, arenas := distArenas(t)
	for kind, a := range arenas {
		f, err := NewDistArenaFile("dist-"+kind, params, a)
		if err != nil {
			t.Fatal(err)
		}
		files[kind] = f
	}
	for name, f := range files {
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		img[4] = 2
		for reader, load := range map[string]func() (*File, error){
			"Read":      func() (*File, error) { return Read(bytes.NewReader(img)) },
			"ReadBytes": func() (*File, error) { return ReadBytes(img) },
			"Open": func() (*File, error) {
				mf, err := Open(writeTemp(t, img))
				if err != nil {
					return nil, err
				}
				mf.Close()
				return mf.File, nil
			},
		} {
			if _, err := load(); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "unsupported version 2") {
				t.Errorf("%s of a version-2 %s store: err = %v, want ErrFormat naming version 2", reader, name, err)
			}
		}
	}
}

// pinnedContentShas was recorded at commit 474c7f2, on the word-aligned
// slab, before labels were packed byte-aligned; that change left it as it was.
// Its range3 rows were re-pinned when a shard's foreign thin labels went from
// 1+w-bit header stubs to absent (0 bits): the labels a shard holds changed,
// and the id-layout rows went with the id-ordered split. The id-layout whole
// rows went when the encoders kept one order; compressed's stayed.
var pinnedContentShas = map[string]string{
	"bdist/degree/whole":                "210ec4b4a6ad773b40ee836a901c0d27d9b1f72543fd85e108f601556adc49cc",
	"compressed/id/whole":               "be326621efc23f4fd2471342494c9457b10744a97139f9a3d9347697fe3baa7f",
	"fatthin-once/degree/range3/arena0": "0898fc021c5a01e77c0fc65355b9a79144c376ea6a578820a8544f0ffec1c940",
	"fatthin-once/degree/range3/arena1": "79340e89906196aa48084ba66e4b02198f8eed3295bbfb1a00604fcd8e5a45c0",
	"fatthin-once/degree/range3/arena2": "16c458d02c2f4ab35fe027b2d33a4d43dd89034f4afdf6bf23c35589a2a64a27",
	"fatthin-once/degree/range3/store0": "0898fc021c5a01e77c0fc65355b9a79144c376ea6a578820a8544f0ffec1c940",
	"fatthin-once/degree/range3/store1": "79340e89906196aa48084ba66e4b02198f8eed3295bbfb1a00604fcd8e5a45c0",
	"fatthin-once/degree/range3/store2": "16c458d02c2f4ab35fe027b2d33a4d43dd89034f4afdf6bf23c35589a2a64a27",
	"fatthin-once/degree/whole":         "8e244e28172034d97ca7ae9169ba918920ecc71ccc977305aa3d0c50a210a2e0",
	"fatthin/degree/range3/arena0":      "5ccb2d22aac68ca2fa5891287f02fc3de8f6562e938bbb268bedc4cecf20ade2",
	"fatthin/degree/range3/arena1":      "dde9199f68b875593754a98f03a5ca48cd9d60f7ac1f7c86c32bf3f3058ed032",
	"fatthin/degree/range3/arena2":      "167df7fd06707bfc69326a797e742b98915e3663be09861de0b1d044d9772f5a",
	"fatthin/degree/range3/store0":      "5ccb2d22aac68ca2fa5891287f02fc3de8f6562e938bbb268bedc4cecf20ade2",
	"fatthin/degree/range3/store1":      "dde9199f68b875593754a98f03a5ca48cd9d60f7ac1f7c86c32bf3f3058ed032",
	"fatthin/degree/range3/store2":      "167df7fd06707bfc69326a797e742b98915e3663be09861de0b1d044d9772f5a",
	"fatthin/degree/whole":              "f2550e572b42ec32587f8387091dbe52a4d68b58e70147418242b4823e2584e2",
	"pll/degree/whole":                  "c9bda7a22b28124eb81faa6f27ada57617781b960c3ed624df51d7775b6884b3",
}

// pinnedStoreShas was recorded when labels were packed byte-aligned and the
// store container went to version 3 (commit 474c7f2's word-aligned bytes
// were pinned here before; pinnedContentShas shows the labels did not move).
// Its range3 rows were re-pinned with pinnedContentShas' when foreign thin
// labels became absent, and lost its id-layout rows with pinnedContentShas'.
// Its permuted whole and store rows were re-pinned when the permutation block
// went from ⌈log₂ n⌉-bit identifiers to run-coded fields (layout "runs"): the
// arena rows, compressed's id-ordered store and pinnedContentShas did not move.
var pinnedStoreShas = map[string]string{
	"bdist/degree/whole":                "bf4d1ebc88359e0371dde6779c4f96e960e7a721f5f4084703856034eee86767",
	"compressed/id/whole":               "38b213c520e4a65953a7253ca15eff2c37a0eedc57639e492412f32e68b5ec29",
	"fatthin-once/degree/range3/arena0": "f5b712116b8792d61c2e1c0160bf15e1928476e901b07df7957eef5abc610bbb",
	"fatthin-once/degree/range3/arena1": "65906c7f040796955048e2cd2409cce2c4798c8291b2532fb6b024a7dca8f275",
	"fatthin-once/degree/range3/arena2": "65dac93f19dd795c4f9926d7101fa471e54e8322f61205eb159441c5ab786cc1",
	"fatthin-once/degree/range3/store0": "95f66106a4a9f286c0f16b7eb2205ed45a69c1b0c0869d546680d7327451ebe7",
	"fatthin-once/degree/range3/store1": "1b3d05390a3e7260aa3bbf3bef1df6872e01d9b9fa4c7abbfad189606644d50d",
	"fatthin-once/degree/range3/store2": "2f2ed6879fcb5e6aabf66ea67c7c47d3e512846fdd03a920eda6ab297a3c1901",
	"fatthin-once/degree/whole":         "2b8acca9c50b233441d25e3b65422776d4d095a1ca114ff84370bacaec2b5441",
	"fatthin/degree/range3/arena0":      "3c977eb6c9e489ce19e2e0d33161f6dfc6bb21b99ca12a81557a95a186b1a5ad",
	"fatthin/degree/range3/arena1":      "f69e9bf263339d65e54c379543e785d76b3d9ce24801300446dcbf1602213376",
	"fatthin/degree/range3/arena2":      "ec3ef64dd936fca9c0652217cc68eaa3efb21b8a32444abad89024ffb0dfa528",
	"fatthin/degree/range3/store0":      "e39598939931aa95ce5d65f67bdde1b793c5110bf16ca0ae902494f9d29c78e6",
	"fatthin/degree/range3/store1":      "74d6061f0dd9efc07855402dff7fe38f1f8b01a88d9056ca4c89e7bf49fc8e5f",
	"fatthin/degree/range3/store2":      "49cf29641b07023e627aa866c4d306924552693d8888e7d86456324df8fb2349",
	"fatthin/degree/whole":              "f455dfb36b610b9dc773e3fb158d7cd5fd3d49752ba6e5ddb0ad3699eaf3d9f4",
	"pll/degree/whole":                  "75e6775170b1937cafeabf7ff1bd3fef7bfae838307473c49f4cfefa004f244b",
}
