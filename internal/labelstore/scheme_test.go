package labelstore

import (
	"bufio"
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/schemes/distance"
)

// distArenas builds one pll and one bdist arena over a small power-law graph,
// the bdist labels laid out again in vertex order as stores written before
// the degree layout hold them, so both body orders go through the store
// round trip.
func distArenas(t testing.TB) (*graph.Graph, map[string]*core.DistArena) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(120, 2.5, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	pll, err := distance.PLLScheme{}.EncodeArena(g, 2, core.LayoutDegree)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := distance.Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 2, core.LayoutDegree)
	if err != nil {
		t.Fatal(err)
	}
	bd = &core.DistArena{Slab: vertexOrder(t, bd.Slab, bd.BitLens, bd.Order), BitLens: bd.BitLens, Params: bd.Params}
	return g, map[string]*core.DistArena{SchemePLL: pll, SchemeBDist: bd}
}

// TestDistStoreRoundTrip: a distance store survives both readers with its
// scheme kind and engine params intact, and the engine rebuilt from the
// loaded arena answers exactly like one built from the source arena.
func TestDistStoreRoundTrip(t *testing.T) {
	g, arenas := distArenas(t)
	n := g.N()
	for kind, a := range arenas {
		want, err := core.NewDistEngine(a)
		if err != nil {
			t.Fatalf("%s: source engine: %v", kind, err)
		}
		f, err := NewDistArenaFile("dist-"+kind, map[string]string{"n": strconv.Itoa(n)}, a)
		if err != nil {
			t.Fatalf("%s: NewDistArenaFile: %v", kind, err)
		}
		if got := f.SchemeKind(); got != kind {
			t.Fatalf("SchemeKind = %q, want %q", got, kind)
		}
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatalf("%s: Write: %v", kind, err)
		}
		data := buf.Bytes()
		for _, r := range []struct {
			name string
			load func() (*File, error)
		}{
			{"Read", func() (*File, error) { return Read(bytes.NewReader(data)) }},
			{"ReadBytes", func() (*File, error) { return ReadBytes(data) }},
		} {
			got, err := r.load()
			if err != nil {
				t.Fatalf("%s %s: %v", r.name, kind, err)
			}
			if got.SchemeKind() != kind {
				t.Fatalf("%s %s: loaded kind %q", r.name, kind, got.SchemeKind())
			}
			dp, ok := got.DistParams()
			if !ok || dp != a.Params {
				t.Fatalf("%s %s: DistParams = %+v ok=%v, want %+v", r.name, kind, dp, ok, a.Params)
			}
			la, ok := got.DistArena()
			if !ok {
				t.Fatalf("%s %s: loaded store has no dist arena", r.name, kind)
			}
			eng, err := core.NewDistEngine(la)
			if err != nil {
				t.Fatalf("%s %s: loaded engine: %v", r.name, kind, err)
			}
			for u := 0; u < n; u += 7 {
				for v := 0; v < n; v += 11 {
					gd, err1 := eng.Dist(u, v)
					wd, err2 := want.Dist(u, v)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s %s: Dist(%d,%d): %v / %v", r.name, kind, u, v, err1, err2)
					}
					if gd != wd {
						t.Fatalf("%s %s: Dist(%d,%d) = %d, want %d", r.name, kind, u, v, gd, wd)
					}
				}
			}
		}
	}
}

// TestDistSchemeUnknownKindRejected: a scheme kind this reader does not know
// must fail by name in both readers, and a known kind missing its companion
// params must name the missing key.
func TestDistSchemeUnknownKindRejected(t *testing.T) {
	slab := make([]byte, 8)
	for _, tc := range []struct {
		params map[string]string
		want   string
	}{
		{map[string]string{schemeKey: "frobnicate", distWidthKey: "3"}, "unknown scheme kind"},
		{map[string]string{schemeKey: SchemePLL}, `requires param "dw"`},
		{map[string]string{schemeKey: SchemeBDist, distWidthKey: "3", distBoundKey: "5"}, `requires param "nfat"`},
		{map[string]string{schemeKey: SchemePLL, distWidthKey: "40"}, "distance width"},
		{map[string]string{schemeKey: SchemeBDist, distWidthKey: "2", distBoundKey: "9", distNFatKey: "0"}, "requires 4"},
	} {
		f, err := NewPermutedArenaFile("x", tc.params, slab, []int{10}, nil)
		if err != nil {
			t.Fatal(err)
		}
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
			_, err := r.load()
			if !errors.Is(err, ErrFormat) {
				t.Errorf("%s params %v: err = %v, want ErrFormat", r.name, tc.params, err)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s params %v: err = %q, want mention of %q", r.name, tc.params, err, tc.want)
			}
		}
	}
}

// TestDistSchemeShardConflictRejected: distance stores are never sharded —
// the writer refuses to emit the combination and both readers refuse a
// hand-crafted header declaring it.
func TestDistSchemeShardConflictRejected(t *testing.T) {
	_, arenas := distArenas(t)
	f, err := NewDistArenaFile("dist-pll", nil, arenas[SchemePLL])
	if err != nil {
		t.Fatal(err)
	}
	f.shard = &shardBlock{m: core.ShardMap{Count: 2, Index: 0, Fn: core.ShardRange}, owned: f.N() / 2}
	var buf bytes.Buffer
	if err := Write(&buf, f); err == nil || !strings.Contains(err.Error(), "sharded store cannot declare") {
		t.Errorf("Write shard+scheme: err = %v", err)
	}

	// Reader side: a crafted v2 header carrying both params plus a shard
	// block. The conflict check fires after both parse, before the body.
	buf.Reset()
	bw := bufio.NewWriter(&buf)
	bw.Write(magic[:])
	bw.WriteByte(formatVersion)
	writeString(bw, "dist-pll")
	writeUvarint(bw, 3) // params
	for _, kv := range [][2]string{{distWidthKey, "4"}, {schemeKey, SchemePLL}, {shardsKey, "2"}} {
		writeString(bw, kv[0])
		writeString(bw, kv[1])
	}
	writeUvarint(bw, 4) // n labels
	for i := 0; i < 4; i++ {
		writeUvarint(bw, 10) // bit lengths
	}
	writeUvarint(bw, 0) // shard block: index
	bw.WriteByte(0)     // ... ownership fn (range)
	writeUvarint(bw, 2) // ... owned count
	bw.Flush()
	data := buf.Bytes()
	for _, r := range []struct {
		name string
		load func() (*File, error)
	}{
		{"Read", func() (*File, error) { return Read(bytes.NewReader(data)) }},
		{"ReadBytes", func() (*File, error) { return ReadBytes(data) }},
	} {
		_, err := r.load()
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "sharded store declares distance scheme") {
			t.Errorf("%s shard+scheme: err = %v", r.name, err)
		}
	}
}

// TestDistStoreCorruption sweeps byte flips and truncations over serialized
// distance stores: neither reader may panic, both must agree on whether the
// bytes still parse, every truncation must be rejected, and any store that
// does parse must either refuse engine construction or answer queries
// in-range without panicking (a flip inside the blob can legitimately
// produce a different but structurally valid labeling).
func TestDistStoreCorruption(t *testing.T) {
	_, arenas := distArenas(t)
	for kind, a := range arenas {
		f, err := NewDistArenaFile("dist-"+kind, nil, a)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()

		for cut := 0; cut < len(data); cut += 3 {
			if _, err := readNoPanic(t, kind, cut, func() (*File, error) { return Read(bytes.NewReader(data[:cut])) }); err == nil {
				t.Fatalf("%s: truncation at %d accepted by Read", kind, cut)
			}
			if _, err := readNoPanic(t, kind, cut, func() (*File, error) { return ReadBytes(data[:cut]) }); err == nil {
				t.Fatalf("%s: truncation at %d accepted by ReadBytes", kind, cut)
			}
		}

		bad := make([]byte, len(data))
		for i := range data {
			for _, mask := range []byte{0x01, 0xff} {
				copy(bad, data)
				bad[i] ^= mask
				fr, errR := readNoPanic(t, kind, i, func() (*File, error) { return Read(bytes.NewReader(bad)) })
				fb, errB := readNoPanic(t, kind, i, func() (*File, error) { return ReadBytes(bad) })
				if (errR == nil) != (errB == nil) {
					t.Fatalf("%s: flip %#x at byte %d: Read err = %v, ReadBytes err = %v", kind, mask, i, errR, errB)
				}
				if errR != nil {
					continue
				}
				// ReadBytes aliases bad, which the next iteration rewrites;
				// probe its result now. Read's copy is independent.
				for _, got := range []*File{fb, fr} {
					la, ok := got.DistArena()
					if !ok {
						continue // flip demoted the store to adjacency
					}
					eng, err := core.NewDistEngine(la)
					if err != nil {
						continue // engine validation caught the damage
					}
					n := eng.N()
					for u := 0; u < n; u += 17 {
						d, err := eng.Dist(u, n-1-u)
						if err == nil && d < -1 {
							t.Fatalf("%s: flip %#x at byte %d: Dist = %d", kind, mask, i, d)
						}
					}
				}
			}
		}
	}
}

// readNoPanic runs a reader, converting a panic into a test failure.
func readNoPanic(t *testing.T, kind string, pos int, load func() (*File, error)) (f *File, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: reader panicked at byte %d: %v", kind, pos, r)
		}
	}()
	return load()
}
