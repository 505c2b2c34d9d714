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
// for one fixed graph, over both layouts × {whole store, 3 range shards} ×
// every scheme the constructors accept in that shape, and of
// every ShardLabelArenas output. Whatever the encoder, the shard split, the
// File constructors or Write do internally, these bytes — and with them
// store_bytes and label_bits_max — must not move.

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

var pinLayouts = []core.Layout{core.LayoutID, core.LayoutDegree}

// pinShards is the shard count of the pinned range partition.
const pinShards = 3

// pinStores computes every pinned hash, keyed scheme/layout/shape: the bytes
// of each output, and the content of its labels.
func pinStores(t *testing.T) (got, content map[string]string) {
	t.Helper()
	g := pinGraph(t)
	params := map[string]string{"n": strconv.Itoa(g.N())}
	got, content = map[string]string{}, map[string]string{}

	adj := map[string]func(core.Layout) (*core.Labeling, error){
		// The paper's both-ends lists: the bytes every store had before the
		// once layout existed, and still has under the option.
		"fatthin": func(lay core.Layout) (*core.Labeling, error) {
			s := core.NewPowerLawScheme(2.5)
			s.SetLayout(lay)
			s.SetThinEdges(core.ThinEdgesBoth)
			return s.EncodeParallel(g, 0)
		},
		"fatthin-once": func(lay core.Layout) (*core.Labeling, error) {
			s := core.NewPowerLawScheme(2.5)
			s.SetLayout(lay)
			return s.EncodeParallel(g, 0)
		},
		// The compressed scheme has one layout, id order.
		"compressed": func(core.Layout) (*core.Labeling, error) {
			return core.NewCompressedScheme(core.NewPowerLawScheme(2.5)).Encode(g)
		},
	}
	for name, encode := range adj {
		for _, lay := range pinLayouts {
			if name == "compressed" && lay != core.LayoutID {
				continue
			}
			lab, err := encode(lay)
			if err != nil {
				t.Fatal(err)
			}
			slab, order, ok := lab.ArenaLayout()
			if !ok {
				t.Fatalf("%s: labeling is not arena-backed", name)
			}
			bitLens := labelingBitLens(t, lab)
			key := fmt.Sprintf("%s/%s", name, lay)
			f, err := NewPermutedArenaFile(lab.Scheme(), params, slab, bitLens, order)
			if err != nil {
				t.Fatal(err)
			}
			got[key+"/whole"] = writtenSha(t, f)
			content[key+"/whole"] = storeContentSha(t, f)
			shape := fmt.Sprintf("%s/range%d", key, pinShards)
			arenas, err := core.ShardLabelArenas(slab, bitLens, order, pinShards, core.ShardRange)
			if name == "compressed" {
				// Compressed thin bodies are not fat/thin neighbour lists; the
				// split refuses them, and that refusal is part of the pin.
				if err == nil {
					t.Errorf("%s: ShardLabelArenas accepted compressed labels", shape)
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
	}

	dist := map[string]func(core.Layout) (*core.DistArena, error){
		"pll": func(lay core.Layout) (*core.DistArena, error) { return distance.PLLScheme{}.EncodeArena(g, 0, lay) },
		"bdist": func(lay core.Layout) (*core.DistArena, error) {
			return distance.Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 0, lay)
		},
	}
	for name, encode := range dist {
		for _, lay := range pinLayouts {
			a, err := encode(lay)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewDistArenaFile("dist-"+name, params, a)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%s/whole", name, lay)
			got[key] = writtenSha(t, f)
			content[key] = storeContentSha(t, f)
		}
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
var pinnedContentShas = map[string]string{
	"bdist/degree/whole":                "210ec4b4a6ad773b40ee836a901c0d27d9b1f72543fd85e108f601556adc49cc",
	"bdist/id/whole":                    "210ec4b4a6ad773b40ee836a901c0d27d9b1f72543fd85e108f601556adc49cc",
	"compressed/id/whole":               "be326621efc23f4fd2471342494c9457b10744a97139f9a3d9347697fe3baa7f",
	"fatthin-once/degree/range3/arena0": "2df2d6a9b391f9e030c6152c73e66c4c7f20b7b95e0a14d5bcf89fe5dd08adc8",
	"fatthin-once/degree/range3/arena1": "d5f80c1f18747dcbf1b870f76401cc356d7553f0c056899ddbd32078054107db",
	"fatthin-once/degree/range3/arena2": "0997510e1a4247dc03c89e54ec5cbc4f5b44b799ae9587411c5b9e477b4e32ab",
	"fatthin-once/degree/range3/store0": "2df2d6a9b391f9e030c6152c73e66c4c7f20b7b95e0a14d5bcf89fe5dd08adc8",
	"fatthin-once/degree/range3/store1": "d5f80c1f18747dcbf1b870f76401cc356d7553f0c056899ddbd32078054107db",
	"fatthin-once/degree/range3/store2": "0997510e1a4247dc03c89e54ec5cbc4f5b44b799ae9587411c5b9e477b4e32ab",
	"fatthin-once/degree/whole":         "8e244e28172034d97ca7ae9169ba918920ecc71ccc977305aa3d0c50a210a2e0",
	"fatthin-once/id/range3/arena0":     "2df2d6a9b391f9e030c6152c73e66c4c7f20b7b95e0a14d5bcf89fe5dd08adc8",
	"fatthin-once/id/range3/arena1":     "d5f80c1f18747dcbf1b870f76401cc356d7553f0c056899ddbd32078054107db",
	"fatthin-once/id/range3/arena2":     "0997510e1a4247dc03c89e54ec5cbc4f5b44b799ae9587411c5b9e477b4e32ab",
	"fatthin-once/id/range3/store0":     "2df2d6a9b391f9e030c6152c73e66c4c7f20b7b95e0a14d5bcf89fe5dd08adc8",
	"fatthin-once/id/range3/store1":     "d5f80c1f18747dcbf1b870f76401cc356d7553f0c056899ddbd32078054107db",
	"fatthin-once/id/range3/store2":     "0997510e1a4247dc03c89e54ec5cbc4f5b44b799ae9587411c5b9e477b4e32ab",
	"fatthin-once/id/whole":             "8e244e28172034d97ca7ae9169ba918920ecc71ccc977305aa3d0c50a210a2e0",
	"fatthin/degree/range3/arena0":      "2c659e34fb7f4d8d6c93620301d16a4759e67223e4d73fbe604c5573ac832420",
	"fatthin/degree/range3/arena1":      "6d048705e908e10ac31e29aa05329a4ff284445e97a7eaff08d646d722e613c6",
	"fatthin/degree/range3/arena2":      "b5335f01838d60f2ba2fc2d56e8469680d41f148fe714c2ba054834085e4a42f",
	"fatthin/degree/range3/store0":      "2c659e34fb7f4d8d6c93620301d16a4759e67223e4d73fbe604c5573ac832420",
	"fatthin/degree/range3/store1":      "6d048705e908e10ac31e29aa05329a4ff284445e97a7eaff08d646d722e613c6",
	"fatthin/degree/range3/store2":      "b5335f01838d60f2ba2fc2d56e8469680d41f148fe714c2ba054834085e4a42f",
	"fatthin/degree/whole":              "f2550e572b42ec32587f8387091dbe52a4d68b58e70147418242b4823e2584e2",
	"fatthin/id/range3/arena0":          "2c659e34fb7f4d8d6c93620301d16a4759e67223e4d73fbe604c5573ac832420",
	"fatthin/id/range3/arena1":          "6d048705e908e10ac31e29aa05329a4ff284445e97a7eaff08d646d722e613c6",
	"fatthin/id/range3/arena2":          "b5335f01838d60f2ba2fc2d56e8469680d41f148fe714c2ba054834085e4a42f",
	"fatthin/id/range3/store0":          "2c659e34fb7f4d8d6c93620301d16a4759e67223e4d73fbe604c5573ac832420",
	"fatthin/id/range3/store1":          "6d048705e908e10ac31e29aa05329a4ff284445e97a7eaff08d646d722e613c6",
	"fatthin/id/range3/store2":          "b5335f01838d60f2ba2fc2d56e8469680d41f148fe714c2ba054834085e4a42f",
	"fatthin/id/whole":                  "f2550e572b42ec32587f8387091dbe52a4d68b58e70147418242b4823e2584e2",
	"pll/degree/whole":                  "c9bda7a22b28124eb81faa6f27ada57617781b960c3ed624df51d7775b6884b3",
	"pll/id/whole":                      "c9bda7a22b28124eb81faa6f27ada57617781b960c3ed624df51d7775b6884b3",
}

// pinnedStoreShas was recorded when labels were packed byte-aligned and the
// store container went to version 3 (commit 474c7f2's word-aligned bytes
// were pinned here before; pinnedContentShas shows the labels did not move).
var pinnedStoreShas = map[string]string{
	"bdist/degree/whole":                "ee325e9c37c084c7945a508b7a30803245f0cf6621a0aad7b2865183faa6a986",
	"bdist/id/whole":                    "40797be4dcf483f893a31fa083f9352ce56d3004a14ff7c16b8918467310bbf2",
	"compressed/id/whole":               "38b213c520e4a65953a7253ca15eff2c37a0eedc57639e492412f32e68b5ec29",
	"fatthin-once/degree/range3/arena0": "339d76d4677847ec0c358981a55f948c619870a29f82730dade1685a063fb230",
	"fatthin-once/degree/range3/arena1": "e89bf057f6c6147197b27ffd592037e2eedcf3c42676ee57d75a274c6d0780a1",
	"fatthin-once/degree/range3/arena2": "a006f4f33a9db75fc7240e662a469d5b533b0fc3a0da488dbdea5a871d452ccf",
	"fatthin-once/degree/range3/store0": "466f516b3c0e8fc98c2ea84a8c41d4368ab953d9558f5eeb345aa34426e65559",
	"fatthin-once/degree/range3/store1": "89d3caf1f7b3f8ebb5580af90ad615b4f7038eb2a6a7bd9a17896007249f83d5",
	"fatthin-once/degree/range3/store2": "fe1c53f00166e3f78a9a9e6022be3009c1a34e3c9dd75f99088c4e8c7114c346",
	"fatthin-once/degree/whole":         "0e0b85f4966cedd9c787bd9af993ac88aef7ada2ef2fff1c82d0f0f64a2c4dc2",
	"fatthin-once/id/range3/arena0":     "f3e7f7de6617b232393a4446d88615528b44135f3882a1740414290b5af00c51",
	"fatthin-once/id/range3/arena1":     "de313b15e818ed8ebf767bcdf27b1ee36a41fa58d8e9268ce3aac941573d8aa0",
	"fatthin-once/id/range3/arena2":     "6b17eda7977f2322fdcb41e458f7dce3a99148dd93e1f1ce8c4dbbc44088fc13",
	"fatthin-once/id/range3/store0":     "8ca1a37720300b2fd3f849888f272ead3f96dd21f331f7bb84e1aa68cc1494e8",
	"fatthin-once/id/range3/store1":     "b3711fa3e72bd258a1fc95f2a72f28c477271b1389b623371354ef0f2c0171ff",
	"fatthin-once/id/range3/store2":     "7e67de87fcd32fcd638c2ec3f014ebdc5e83cdb957997aae4df9cafadeabb6f1",
	"fatthin-once/id/whole":             "23853fe76deb012ccd19bb0e711a91fc0f5bf2b4a17e461e1ad513753a3610c2",
	"fatthin/degree/range3/arena0":      "7067a4486833f6b8f9160d5e23918e522aa223f35d3082b984814e420382dc29",
	"fatthin/degree/range3/arena1":      "fd6e31fc35552e042e90a062aecb90afee34155f8efe5130c33bf87d7fe69f32",
	"fatthin/degree/range3/arena2":      "07aca92099b5ca1442414b9aefe6fa17603db87e3ec4c8ba419e57a278980705",
	"fatthin/degree/range3/store0":      "d060ef6a068f73a9a523f448ac20b77d7e704c9fba892e1232fc1b2571a85974",
	"fatthin/degree/range3/store1":      "01e65e2f15d0ad60e2ee7808a0162c5c16291e77fc77dd95dbf7f559e940bad3",
	"fatthin/degree/range3/store2":      "74c54a6631254e33123d5d142a47f2707e7daf5d115d9bc78f7cb9377b790b0b",
	"fatthin/degree/whole":              "e58c2cab385a143a6564fea4d3257eb4394dc8197f1956caaf36a35f1cd6a622",
	"fatthin/id/range3/arena0":          "64423c395ff0f31cfaf43a6b989bf644f361072ea49d052c4accf2df9961467a",
	"fatthin/id/range3/arena1":          "ea597900b2932f487e48428adbdabfc12e930be3e8ff091d48b25f36b53dcc6f",
	"fatthin/id/range3/arena2":          "cfd963a1ed85582e287e8232a72e579d9536b3a35769191081e857b2f9d4a020",
	"fatthin/id/range3/store0":          "919783ebb93fbdaf665d056969c8bd095d0b7bee5cc2a987859673fc1324ffe9",
	"fatthin/id/range3/store1":          "976cb89027a2b0ef7a1de9514a83f079da320a66dabc5041ca3c128c2816ab87",
	"fatthin/id/range3/store2":          "8f477533aa11ac7778946d4ebbfd2de8cde747e93f6808ad19fdd524a26ac9c6",
	"fatthin/id/whole":                  "f8be33ded7ad10dd1399fbce9e482d8b9701f666230ed860cabebc92d5e48f57",
	"pll/degree/whole":                  "74f1d7f7951968350eb4cc8fdc90edc9130adf4ba0514ea443994bbdd5bddb30",
	"pll/id/whole":                      "5de646bd060c79deffb3a9196108b5dc528e03cf32f93d4fbf906f56cdc08dc2",
}
