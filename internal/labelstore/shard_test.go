package labelstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// shardStores splits a degree-ordered labeling of g into count range shard
// store files, returning them alongside the source labeling.
func shardStores(t testing.TB, g *graph.Graph, count int) ([]*File, *core.Labeling) {
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
	arenas, err := core.ShardLabelArenas(slab, lab.BitLens(), order, count, core.ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*File, count)
	params := map[string]string{"n": strconv.Itoa(g.N())}
	for i, a := range arenas {
		m := core.ShardMap{Count: count, Index: i, Fn: core.ShardRange}
		f, err := NewShardArenaFile(lab.Scheme(), params, a.Slab, a.BitLens, order, m)
		if err != nil {
			t.Fatalf("shard %d store: %v", i, err)
		}
		files[i] = f
	}
	return files, lab
}

// TestShardStoreRoundTrip: every shard file survives both readers with its
// shard map, permutation, and slab intact — and no per-label view table,
// which a shard store, served only through the engine, does not build — and
// of the reconstructed per-shard engines at least one answers every edge of
// the graph, true, while the others refuse it as not resident (which shard is
// the routing rule's business, pinned in core and adjserve).
func TestShardStoreRoundTrip(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(200, 2.5, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := shardStores(t, g, 3)
	engines := make([]*core.QueryEngine, len(files))
	for i, f := range files {
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
			got, err := r.load()
			if err != nil {
				t.Fatalf("%s shard %d: %v", r.name, i, err)
			}
			m, ok := got.Shard()
			if !ok {
				t.Fatalf("%s shard %d: loaded store lost its shard map", r.name, i)
			}
			if want := (core.ShardMap{Count: 3, Index: i, Fn: core.ShardRange}); m != want {
				t.Fatalf("%s shard %d: shard map %+v, want %+v", r.name, i, m, want)
			}
			if got.Labels != nil {
				t.Fatalf("%s shard %d: %d label views built for a shard store", r.name, i, len(got.Labels))
			}
			slab, bitLens, order, ok := got.ArenaLayout()
			if !ok {
				t.Fatalf("%s shard %d: store is not arena-backed", r.name, i)
			}
			if !bytes.Equal(slab, f.arena) || !slices.Equal(bitLens, f.bitLens) || !slices.Equal(order, f.order) {
				t.Fatalf("%s shard %d: arena differs after round trip", r.name, i)
			}
			eng, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
			if err != nil {
				t.Fatalf("%s shard %d engine: %v", r.name, i, err)
			}
			if err := eng.SetShard(m); err != nil {
				t.Fatalf("%s shard %d SetShard: %v", r.name, i, err)
			}
			engines[i] = eng
		}
	}
	for u := 0; u < g.N(); u++ {
		for _, v32 := range g.Neighbors(u) {
			v := int(v32)
			answered := 0
			for s, e := range engines {
				adj, err := e.Adjacent(u, v)
				switch {
				case errors.Is(err, core.ErrNotResident):
				case err != nil:
					t.Fatalf("edge (%d,%d) on shard %d: %v", u, v, s, err)
				case !adj:
					t.Fatalf("edge (%d,%d) answered false on shard %d", u, v, s)
				default:
					answered++
				}
			}
			if answered == 0 {
				t.Fatalf("no shard answers edge (%d,%d)", u, v)
			}
		}
	}
}

// shardBlockRange locates the [start, end) byte range of the shard block in a
// serialized store image by walking every header field in front of
// it (including the permutation block when the store is degree-ordered).
func shardBlockRange(t testing.TB, data []byte, n int, permuted bool) (int, int) {
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
	if permuted {
		off = permBlockEnd(t, data, off, n)
	}
	start := off
	uv("shard index")
	off++ // ownership function byte
	uv("shard owned count")
	return start, off
}

// hashOwnedImage is shard 1 of a 3-shard range partition of g, written and
// stamped with the retired hash function's ownership byte (1): what a pllabel
// that still offered -shard-fn hash wrote, as far as any reader looks before
// refusing it.
func hashOwnedImage(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	files, _ := shardStores(t, g, 3)
	var buf bytes.Buffer
	if err := Write(&buf, files[1]); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	start, _ := shardBlockRange(t, img, g.N(), true)
	img[start+1] = 1 // after the one-byte index
	return img
}

// retiredShardImage is shard 1 of a 3-shard range partition of g as a
// pllabel before absent labels wrote it, each foreign thin label cut to its
// 1+w-bit [fat=0][id] header stub — or, idOrder, the shard laid out in id
// order with its foreign thin labels absent, which no pllabel wrote. Write
// serializes either as it stands; the readers refuse the id-ordered one,
// Engines the stub-era one.
func retiredShardImage(t testing.TB, g *graph.Graph, idOrder bool) []byte {
	t.Helper()
	w := bitstr.WidthFor(uint64(g.N()))
	return shardImage(t, g, idOrder, func(v int, l bitstr.String, foreignThin bool) bitstr.String {
		var stub bitstr.Builder
		if foreignThin && !idOrder {
			stub.AppendBit(false)
			stub.AppendUint(l.MustPeekUint(1, w), w)
		}
		if foreignThin {
			return stub.String()
		}
		return l
	})
}

// shardImage is shard 1 of a 3-shard range partition of g written label by
// label: label v is edit(v, its full label, whether v is a foreign thin
// vertex) — absent (the empty string) for each foreign thin label in a true
// shard — laid out in the degree order, or in id order when idOrder. Write
// serializes it as it stands, whatever edit returns.
func shardImage(t testing.TB, g *graph.Graph, idOrder bool, edit func(v int, l bitstr.String, foreignThin bool) bitstr.String) []byte {
	t.Helper()
	files, lab := shardStores(t, g, 3)
	_, order, _ := lab.ArenaLayout()
	lo, hi := files[1].shard.m.Range(g.N())
	labels := make([]bitstr.String, g.N())
	for v := range labels {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		labels[v] = edit(v, l, (v < lo || v >= hi) && l.MustPeekUint(0, 1) == 0)
	}
	physical := labels
	if idOrder {
		order = nil
	} else {
		physical = make([]bitstr.String, len(labels))
		for r, v := range order {
			physical[r] = labels[v]
		}
	}
	f := &File{Scheme: files[1].Scheme, Params: files[1].Params, order: order, shard: files[1].shard}
	f.arena, _ = bitstr.PackSlab(physical)
	_, f.bitLens = bitstr.PackSlab(labels)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEnginesShardRefusals: a shard store whose labels break the shard rule
// loads — the readers check only the block's format and read no label body —
// and Engines refuses it before it serves, naming the first offending vertex
// in slab order: an owned label absent, a foreign thin label present, the
// stub-era store whose foreign thin labels are header stubs, and a label
// shorter than its fat/thin header.
func TestEnginesShardRefusals(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(60, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	files, lab := shardStores(t, g, 3)
	_, order, _ := lab.ArenaLayout()
	lo, hi := files[1].shard.m.Range(g.N())
	thin := func(v int) bool {
		l, _ := lab.Label(v)
		return l.MustPeekUint(0, 1) == 0
	}
	owned, foreign, stub := -1, -1, -1 // an owned and a foreign thin vertex; the first foreign thin one by rank
	for _, v32 := range order {
		switch v := int(v32); {
		case !thin(v):
		case lo <= v && v < hi:
			owned = max(owned, v)
		case stub < 0:
			stub, foreign = v, v
		}
	}
	if owned < 0 || foreign < 0 {
		t.Fatalf("shard [%d, %d) of %d vertices has no owned or no foreign thin vertex", lo, hi, g.N())
	}
	split := func(target int, cut func(bitstr.String) bitstr.String) []byte {
		return shardImage(t, g, false, func(v int, l bitstr.String, foreignThin bool) bitstr.String {
			switch {
			case v == target:
				return cut(l)
			case foreignThin:
				return bitstr.String{}
			}
			return l
		})
	}
	var oneBit bitstr.Builder
	oneBit.AppendBit(false)
	for _, row := range []struct {
		name, want string
		data       []byte
	}{
		{"owned label absent", fmt.Sprintf("vertex %d is owned by shard 1/3 yet its label is absent", owned),
			split(owned, func(bitstr.String) bitstr.String { return bitstr.String{} })},
		{"foreign thin label present", fmt.Sprintf("vertex %d is foreign to shard 1/3 yet its thin label is present", foreign),
			split(foreign, func(l bitstr.String) bitstr.String { return l })},
		{"stub-era store", fmt.Sprintf("vertex %d is foreign to shard 1/3 and carries a", stub) + " 7-bit header stub (re-run pllabel -shards)",
			retiredShardImage(t, g, false)},
		{"header-short label", fmt.Sprintf("label %d at rank", owned),
			split(owned, func(bitstr.String) bitstr.String { return oneBit.String() })},
	} {
		for _, r := range []struct {
			name string
			load func() (*File, error)
		}{
			{"Read", func() (*File, error) { return Read(bytes.NewReader(row.data)) }},
			{"ReadBytes", func() (*File, error) { return ReadBytes(row.data) }},
		} {
			f, err := r.load()
			if err != nil {
				t.Fatalf("%s of a %s image: %v, want it loaded", r.name, row.name, err)
			}
			if _, _, err := f.Engines(); !errors.Is(err, core.ErrBadLabel) || !strings.Contains(err.Error(), row.want) {
				t.Errorf("Engines over a %s image (%s): err = %v, want ErrBadLabel naming %q", row.name, r.name, err, row.want)
			}
		}
	}
}

// TestShardCorruptionErrors is the load-time safety property of the shard
// block, mirroring the permutation block's: any truncation inside it, and any
// single corrupted byte of it, must make both readers fail. (A corrupted
// field either breaks the uvarint framing — shifting the blob length out of
// agreement — or decodes to a map the validators reject: index out of range,
// unknown function, owned count disagreeing with the function.)
func TestShardCorruptionErrors(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(60, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := shardStores(t, g, 3)
	// Shard 1: a nonzero index exercises both uvarint fields.
	var buf bytes.Buffer
	if err := Write(&buf, files[1]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	start, end := shardBlockRange(t, data, g.N(), true)
	if start >= end {
		t.Fatalf("degenerate shard block [%d,%d)", start, end)
	}
	// Sanity: the intact image still parses.
	if _, err := ReadBytes(data); err != nil {
		t.Fatal(err)
	}
	for cut := start; cut < end; cut++ {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("Read accepted a store truncated at byte %d (shard block [%d,%d))", cut, start, end)
		}
		if _, err := ReadBytes(data[:cut]); err == nil {
			t.Fatalf("ReadBytes accepted a store truncated at byte %d", cut)
		}
	}
	for i := start; i < end; i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0xFF
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("Read accepted a store with shard byte %d corrupted", i)
		}
		if _, err := ReadBytes(bad); err == nil {
			t.Fatalf("ReadBytes accepted a store with shard byte %d corrupted", i)
		}
	}
}

// TestShardWrongIndexRejected: patching the serialized index to a different
// but structurally valid shard (same count, near-equal owned counts) loads —
// the readers hold the block to its format only — and Engines refuses it
// before it serves: the absent labels of the blob belong to the true index,
// so labels the forged map owns are absent.
func TestShardWrongIndexRejected(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(60, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := shardStores(t, g, 3)
	var buf bytes.Buffer
	if err := Write(&buf, files[1]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	start, _ := shardBlockRange(t, data, g.N(), true)
	if data[start] != 1 {
		t.Fatalf("shard index byte at %d is %d, want 1", start, data[start])
	}
	for _, forged := range []byte{0, 2} {
		bad := bytes.Clone(data)
		bad[start] = forged
		for name, load := range map[string]func() (*File, error){
			"Read":      func() (*File, error) { return Read(bytes.NewReader(bad)) },
			"ReadBytes": func() (*File, error) { return ReadBytes(bad) },
		} {
			f, err := load()
			if err != nil {
				t.Fatalf("%s under forged index %d: %v", name, forged, err)
			}
			if _, _, err := f.Engines(); !errors.Is(err, core.ErrBadLabel) || !strings.Contains(err.Error(), "(wrong shard map?)") {
				t.Fatalf("Engines over shard 1's blob under forged index %d (%s): err = %v", forged, name, err)
			}
		}
	}
}

// TestNewShardArenaFileValidates rejects at construction the maps that are
// malformed for the arena — an out-of-range index, a degenerate count, the
// retired hash function and an unknown one — and leaves an overlapping,
// wrong-index map (labels it calls foreign have full bodies) to Engines.
func TestNewShardArenaFileValidates(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(60, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	files, lab := shardStores(t, g, 3)
	slab, bitLens, order, _ := files[0].ArenaLayout()
	params := map[string]string{"n": strconv.Itoa(g.N())}
	wrong, err := NewShardArenaFile(lab.Scheme(), params, slab, bitLens, order, core.ShardMap{Count: 3, Index: 1, Fn: core.ShardRange})
	if err != nil {
		t.Fatalf("wrong index: %v, want the map left to Engines", err)
	}
	if _, _, err := wrong.Engines(); !errors.Is(err, core.ErrBadLabel) {
		t.Errorf("wrong index: Engines err = %v, want ErrBadLabel", err)
	}
	for name, m := range map[string]core.ShardMap{
		"retired function": {Count: 3, Index: 0, Fn: core.ShardFn(1)},
		"index range":      {Count: 3, Index: 3, Fn: core.ShardRange},
		"one shard":        {Count: 1, Index: 0, Fn: core.ShardRange},
		"unknown function": {Count: 3, Index: 0, Fn: core.ShardFn(9)},
	} {
		if _, err := NewShardArenaFile(lab.Scheme(), params, slab, bitLens, order, m); err == nil {
			t.Errorf("%s: shard map %+v accepted over shard 0's arena", name, m)
		}
	}
}

// TestUnshardedStoreNoShard: ordinary v2 stores (permuted or not) report no
// shard map and keep loading exactly as before the shard extension.
func TestUnshardedStoreNoShard(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(80, 2.5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := permutedStore(t, g)
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
		if m, ok := got.Shard(); ok {
			t.Fatalf("unsharded store grew shard map %+v", m)
		}
	}
}
