package labelstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// v2Fixture encodes a power-law graph with the pipeline (arena-backed) and
// returns the graph, the labeling, and the serialized v2 store image.
func v2Fixture(t *testing.T, n int, seed int64) (*core.Labeling, []byte) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	f, err := NewPermutedArenaFile(lab.Scheme(), map[string]string{"n": "x"}, slab, lab.BitLens(), order)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return lab, buf.Bytes()
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.pllb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadBytesMatchesRead: ReadBytes and Read agree on every field of a v2
// store, and ReadBytes' arena is the file's body verbatim (zero-copy: a
// sub-slice of the input).
func TestReadBytesMatchesRead(t *testing.T) {
	_, data := v2Fixture(t, 200, 5)
	a, err := ReadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if a.Scheme != b.Scheme || a.N() != b.N() || a.Params["n"] != b.Params["n"] {
		t.Fatalf("header mismatch: %q/%d vs %q/%d", a.Scheme, a.N(), b.Scheme, b.N())
	}
	for v := range a.Labels {
		if !a.Labels[v].Equal(b.Labels[v]) {
			t.Fatalf("label %d differs between ReadBytes and Read", v)
		}
	}
	arena, _, _, ok := a.ArenaLayout()
	if !ok {
		t.Fatal("ReadBytes lost the arena")
	}
	// Zero-copy: the arena must be the tail of the input slice, not a copy.
	if len(arena) > 0 && &arena[0] != &data[len(data)-len(arena)] {
		t.Error("ReadBytes copied the blob instead of adopting it")
	}
}

// TestOpenServesQueries: an Open'ed v2 store feeds the query engine directly
// and answers exactly like the original labeling. On Linux the store must be
// a live mapping (the zero-copy startup path).
func TestOpenServesQueries(t *testing.T) {
	lab, data := v2Fixture(t, 300, 7)
	mf, err := Open(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if runtime.GOOS == "linux" && !mf.Mapped() {
		t.Error("v2 store on linux should be memory-mapped")
	}
	slab, bitLens, order, ok := mf.ArenaLayout()
	if !ok {
		t.Fatal("opened v2 store has no arena")
	}
	eng, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < lab.N(); u += 5 {
		for v := u + 1; v < lab.N(); v += 3 {
			want, err := lab.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("mmap engine (%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	if mf.Mapped() {
		t.Error("Mapped() true after Close")
	}
	if err := mf.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestOpenRejectsTruncation: a v2 file cut anywhere inside the body (or the
// header) must fail at Open — never surface a partially-backed arena that
// would fault at query time.
func TestOpenRejectsTruncation(t *testing.T) {
	_, data := v2Fixture(t, 150, 3)
	for _, keep := range []int{len(data) - 1, len(data) - 17, len(data) / 2, 10, 4, 0} {
		mf, err := Open(writeTemp(t, data[:keep]))
		if err == nil {
			mf.Close()
			t.Fatalf("truncated store of %d/%d bytes opened without error", keep, len(data))
		}
		if keep > 5 && !errors.Is(err, ErrFormat) {
			t.Errorf("truncation at %d: err = %v, want ErrFormat", keep, err)
		}
	}
}

// corruptBlobLen returns a copy of a v2 image whose blob-length uvarint is
// rewritten by delta bytes (the field sits immediately before the body blob,
// which is blobBytes long).
func corruptBlobLen(t testing.TB, data []byte, blobBytes int, newLen uint64) []byte {
	t.Helper()
	var lenField [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenField[:], newLen)
	cut := len(data) - blobBytes - len(binary.AppendUvarint(nil, uint64(blobBytes)))
	head := data[:cut:cut]
	out := append(append(append([]byte{}, head...), lenField[:n]...), data[len(data)-blobBytes:]...)
	return out
}

// TestBlobLengthMismatchRejected: both parsers reject a blob-length field
// that disagrees with the declared bit lengths, in both directions, before
// constructing any views.
func TestBlobLengthMismatchRejected(t *testing.T) {
	lab, data := v2Fixture(t, 120, 11)
	slab, _, _ := lab.ArenaLayout()
	for _, wrong := range []uint64{0, uint64(len(slab) - 8), uint64(len(slab) + 8), uint64(len(slab)) * 3} {
		bad := corruptBlobLen(t, data, len(slab), wrong)
		if _, err := ReadBytes(bad); !errors.Is(err, ErrFormat) {
			t.Errorf("ReadBytes with blobLen=%d: err = %v, want ErrFormat", wrong, err)
		}
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
			t.Errorf("Read with blobLen=%d: err = %v, want ErrFormat", wrong, err)
		}
	}
}

// copyOpens reads labelstore_open_total{mode="copy"} from a scrape of reg.
func copyOpens(t *testing.T, reg *obs.Registry) int64 {
	t.Helper()
	for _, line := range strings.Split(reg.Expose(), "\n") {
		if v, ok := strings.CutPrefix(line, `labelstore_open_total{mode="copy"} `); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatal(`scrape has no labelstore_open_total{mode="copy"}`)
	return 0
}

// TestOpenFallbackMatchesMapped: the copy fallback — the only way a store
// loads where mmap is unavailable — yields the same store as the mapped Open
// for every store shape (id, degree, shard, pll, bdist), and counts itself as
// a copy open.
func TestOpenFallbackMatchesMapped(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(120, 2.5, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]string{"n": strconv.Itoa(g.N())}
	stores := map[string]*File{}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	if stores["id"], err = NewPermutedArenaFile(lab.Scheme(), params, slab, lab.BitLens(), order); err != nil {
		t.Fatal(err)
	}
	stores["degree"], _ = permutedStore(t, g)
	shards, _ := shardStores(t, g, 3)
	stores["shard"] = shards[1]
	_, arenas := distArenas(t)
	for kind, a := range arenas {
		if stores[kind], err = NewDistArenaFile("dist-"+kind, params, a); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	for shape, store := range stores {
		var buf bytes.Buffer
		if err := Write(&buf, store); err != nil {
			t.Fatal(err)
		}
		path := writeTemp(t, buf.Bytes())
		mapped, err := Open(path)
		if err != nil {
			t.Fatalf("%s: Open: %v", shape, err)
		}
		defer mapped.Close()
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		before := copyOpens(t, reg)
		copied, err := openFallback(fh)
		if err != nil {
			t.Fatalf("%s: openFallback: %v", shape, err)
		}
		if got := copyOpens(t, reg) - before; got != 1 {
			t.Errorf("%s: copy opens moved by %d, want 1", shape, got)
		}
		if copied.Mapped() {
			t.Errorf("%s: fallback store reports a mapping", shape)
		}

		if copied.Scheme != mapped.Scheme || !maps.Equal(copied.Params, mapped.Params) {
			t.Errorf("%s: scheme/params %q %v, mapped %q %v", shape, copied.Scheme, copied.Params, mapped.Scheme, mapped.Params)
		}
		cs, cl, co, cok := copied.ArenaLayout()
		ms, ml, mo, mok := mapped.ArenaLayout()
		if !cok || !mok || !bytes.Equal(cs, ms) || !slices.Equal(cl, ml) || !slices.Equal(co, mo) {
			t.Errorf("%s: arena layouts differ (ok %v/%v)", shape, cok, mok)
		}
		cm, cok := copied.Shard()
		mm, mok := mapped.Shard()
		if cm != mm || cok != mok {
			t.Errorf("%s: shard %+v %v, mapped %+v %v", shape, cm, cok, mm, mok)
		}
		cd, cok := copied.DistParams()
		md, mok := mapped.DistParams()
		if cd != md || cok != mok {
			t.Errorf("%s: dist params %+v %v, mapped %+v %v", shape, cd, cok, md, mok)
		}
		if len(copied.Labels) != len(mapped.Labels) {
			t.Fatalf("%s: %d labels, mapped %d", shape, len(copied.Labels), len(mapped.Labels))
		}
		for v := range mapped.Labels {
			if !copied.Labels[v].Equal(mapped.Labels[v]) {
				t.Fatalf("%s: label %d differs from the mapped store's", shape, v)
			}
		}
	}
}
