package labelstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/schemes/distance"
)

// The set-up path's byte pins: the sha256 of every store file Write produces
// for one fixed graph, over both layouts × {whole store, 3 range shards, 2
// hash shards} × every scheme the constructors accept in that shape, and of
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

var pinLayouts = []core.Layout{core.LayoutID, core.LayoutDegree}

var pinSplits = []struct {
	count int
	fn    core.ShardFn
}{{3, core.ShardRange}, {2, core.ShardHash}}

// pinStores computes every pinned hash, keyed scheme/layout/shape.
func pinStores(t *testing.T) map[string]string {
	t.Helper()
	g := pinGraph(t)
	params := map[string]string{"n": strconv.Itoa(g.N())}
	got := map[string]string{}

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
		"compressed": func(lay core.Layout) (*core.Labeling, error) {
			s := core.NewCompressedScheme(core.NewPowerLawScheme(2.5))
			s.SetLayout(lay)
			return s.EncodeParallel(g, 0)
		},
	}
	for name, encode := range adj {
		for _, lay := range pinLayouts {
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
			for _, sp := range pinSplits {
				shape := fmt.Sprintf("%s/%s%d", key, sp.fn, sp.count)
				arenas, err := core.ShardLabelArenas(slab, bitLens, order, sp.count, sp.fn)
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
					got[fmt.Sprintf("%s/arena%d", shape, i)] = shardArenaSha(a)
					m := core.ShardMap{Count: sp.count, Index: i, Fn: sp.fn}
					f, err := NewShardArenaFile(lab.Scheme(), params, a.Slab, a.BitLens, order, m)
					if err != nil {
						t.Fatal(err)
					}
					got[fmt.Sprintf("%s/store%d", shape, i)] = writtenSha(t, f)
				}
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
			got[fmt.Sprintf("%s/%s/whole", name, lay)] = writtenSha(t, f)
		}
	}
	return got
}

// TestStoreBytesPinned compares every hash with its recorded value, once per
// GOMAXPROCS of 1, 2 and 7: whatever on the path fans out over that many
// goroutines (the encoders' fill phase, the shard split), the bytes may not
// depend on it. CI runs it under -race.
func TestStoreBytesPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		got := pinStores(t)
		for key, want := range pinnedStoreShas {
			if got[key] != want {
				t.Errorf("GOMAXPROCS %d: %s = %q, pinned %q", procs, key, got[key], want)
			}
		}
		for key, sum := range got {
			if _, ok := pinnedStoreShas[key]; !ok {
				t.Errorf("GOMAXPROCS %d: unpinned output %q: %q,", procs, key, sum)
			}
		}
	}
}

// pinnedStoreShas was recorded at commit a028a4f, before the set-up path was
// reworked; the fatthin-once rows when the once layout landed.
var pinnedStoreShas = map[string]string{
	"bdist/degree/whole":                "ca47f7593b50690d9b10042cb4fc9168268538ae499a0998c1e994efa776fc55",
	"bdist/id/whole":                    "1a289f04f78e4c2ab4774bceb9beae7a3f010145dcf9106b5bf6f517094a2573",
	"compressed/degree/whole":           "2b2b0ba355caa8f45e75ee0dba56e68c0052c0520a0ec4bca8c72daae6b0fcfb",
	"compressed/id/whole":               "3a486bca2d57f9db558c1cb778ff377a3776e816015e8bb4f883b596e249b579",
	"fatthin/degree/hash2/arena0":       "44286714ed26524a2b481aa965879827efaf6f0efb418c3cc8dace6018d074c1",
	"fatthin/degree/hash2/arena1":       "08d7b57fa5c28237a939484c1e76a3b5e7e1a7078f65d5285937bb0b579ad41a",
	"fatthin/degree/hash2/store0":       "f4759b159622cc892f09625982ba1aa8dd5634a7be4a937964d844d77ec48edc",
	"fatthin/degree/hash2/store1":       "c5a99b47a9b0ab295222f8b9faf79cd41be1ef68ce4ad9181cb40dec42d27e11",
	"fatthin/degree/range3/arena0":      "f78cd715a8b860a06b0601c630483ac9198e0999891c530e150954a0bc36e4d2",
	"fatthin/degree/range3/arena1":      "6a4d0585105ebbade2d7b6f93cd383670fc948778b561b1fb47495b69050c02f",
	"fatthin/degree/range3/arena2":      "052baa8571e54c9bed3b87c88b08916f0bf2b5c2211c0fb9393aeeffb4e9ecfb",
	"fatthin/degree/range3/store0":      "1d291706f08fee9768655ad966cfd0d9909db055f8f1bdc75668f081f6d73c53",
	"fatthin/degree/range3/store1":      "c8bc517b4d05cf2dd821ae9d616dddaa4e8d6b77ec37b88a25c8bc52bd9cad08",
	"fatthin/degree/range3/store2":      "23b7356002fb3d25ac1a64c38d868e638721885217ed5777400b7c1cacf36804",
	"fatthin/degree/whole":              "f132118ac541ef289f556680a6d3fd5860ad350d4018208ef70370b9fda55176",
	"fatthin/id/hash2/arena0":           "f2ba8262007d14bb4775c7c609cfedee9634d4cbb3ffd2d96e3c21822252ce01",
	"fatthin/id/hash2/arena1":           "46ee02822d5b2ab44b8137c4a325739becd65cb47f3a29af29555bc215a52433",
	"fatthin/id/hash2/store0":           "fba1758bc2b494355f0c1e87879fea198268938fcf7c658d2097ae07f6feb05b",
	"fatthin/id/hash2/store1":           "5b47d0c558a360194f9e49c1b85db65c6fc8ef9b2bb3b2be50d27311791e7061",
	"fatthin/id/range3/arena0":          "209f259b92987e70f0b1ec10c2aea39ec28820b2617a2328f8a28dbc4d577c8c",
	"fatthin/id/range3/arena1":          "96c8461bc7c225b13b71c705f612614a3a1bfc5d424e38f248b8315f25782ca4",
	"fatthin/id/range3/arena2":          "ff4cd57578f90ab1a2c34c1409d61af940e4d0259c8430fbec2748d1fad7020e",
	"fatthin/id/range3/store0":          "47ba5f16aeefa2b5ff7d91f6f857c9e26a33c5ece7aff44c51b7820aa66040ef",
	"fatthin/id/range3/store1":          "096e4aadb2e89b2fb9798c70903f460b4f2881727b6d3838b955501b56ae6dd8",
	"fatthin/id/range3/store2":          "c5442f71ddcfa467df584147c332b9dfa53b6a8fc4d62cbdb74ab700804ee03d",
	"fatthin/id/whole":                  "f6698f4508dd74c3a6d4dc591663d02bc639fdbc2dada09f1f5d315a2dce7db7",
	"fatthin-once/degree/hash2/arena0":  "4a37eae665fd37118f1be26aa965d6264a0e56856c773500ff3aed838831b091",
	"fatthin-once/degree/hash2/arena1":  "b9f2f23e31635876d731f5ca39d70243128e1cfe33ec632ee2d92206dd03a826",
	"fatthin-once/degree/hash2/store0":  "12b38eedd60142ad3bc99ff8020e0b4d441be4eb81ddea0746c3189f3dd1b052",
	"fatthin-once/degree/hash2/store1":  "9913962c0b1d3d223f8aaac9ad8f31edf3feea70d778dffb1080aacd84a3484c",
	"fatthin-once/degree/range3/arena0": "ade3a3d149249317dac8a0cc2f69588007af4348f62a316da211d755beff912a",
	"fatthin-once/degree/range3/arena1": "dac8c69db5eedbd4203ed3cfc1566bd42e8848547ffa6ce5eba161da4eb5da59",
	"fatthin-once/degree/range3/arena2": "92c0f17983ef120f958615b5c71bf3cc8eb5a4d5bc794baaf986126dc878aa77",
	"fatthin-once/degree/range3/store0": "35fb03dfdff62cddc1a28879411412f3c6c2aafda061b28b0cdb7108a64526e5",
	"fatthin-once/degree/range3/store1": "d9dbc35f9a23eed9d8bacc80a2b2741d635424586594ba7a3002e86bec52ba31",
	"fatthin-once/degree/range3/store2": "79c8f9fb0d8a8a65a1a6138836cd2d7481097af6b7dd39e80f6ed6b1c07f3556",
	"fatthin-once/degree/whole":         "7108a5d49df4adbf4facfa5863f9ded140bed8fa93e094679110d42808f48137",
	"fatthin-once/id/hash2/arena0":      "630965d74234dfd3ee09d54b7bb456e4e5ed9e952a901f881517a96df5302edd",
	"fatthin-once/id/hash2/arena1":      "ddaea31e5089fdbfd227fb28460d2b30f39fccf78982ff0cf63200c8250994f0",
	"fatthin-once/id/hash2/store0":      "2387d866e6db8df995a31648c9ba32492f5ea51d42c40d7ccec6f639022eeef8",
	"fatthin-once/id/hash2/store1":      "fe7cf4eaec8edfec06bc29a292f11517af75e58afd80ea43fb23219a7ec1874c",
	"fatthin-once/id/range3/arena0":     "b35326dee58bec17941ffb1c778789234b63eb97a740b07c7b241152962e9c19",
	"fatthin-once/id/range3/arena1":     "345ec18c1150528d3ab6bd2bd6c188ef45903fa3b38b82aaacb8f0b820bd20b4",
	"fatthin-once/id/range3/arena2":     "b4b36058cfb796680e5f63432328245b38f1d1716b3a02f68837e7210af224d5",
	"fatthin-once/id/range3/store0":     "21300f05b93c139ed60c0dfb340a6cb7ef9590602647a1ebac3bb37b1503380d",
	"fatthin-once/id/range3/store1":     "11f21db9dc931f35d800fd459036dc2323ec3e49549b26dde9b5dbafd65d5d29",
	"fatthin-once/id/range3/store2":     "69dd30350469b05e16f0a6567b94c20fb72fcd58160074386127595465a51148",
	"fatthin-once/id/whole":             "68f4578968212698359d2a638ead5c73ad6ef1a4b1a6252f85ffeb771c97b83c",
	"pll/degree/whole":                  "501d5561504dcc4d740aa054e44fcd5f202e3625e4c6063a4e82d69d5e4d37b6",
	"pll/id/whole":                      "07ff11c54f8e621f113df4753f0ba2220bb798ccac4c250026f12a2efa1e8edd",
}
