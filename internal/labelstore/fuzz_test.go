package labelstore

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
)

// FuzzReadBytes hammers both entry points of the one parser with one byte
// image. For ANY input:
//
//   - ReadBytes and Read accept or reject alike, and an accepted image yields
//     the same labels from both (bit for bit inside each label's length —
//     Read masks the padding of the final byte, ReadBytes leaves a mapping
//     untouched);
//   - a file both accepted never builds an engine that answers differently
//     between the two, whatever sits in the padding;
//   - an adjacency engine answers exactly what the paper's decoder answers
//     from the file's own two labels — for an unmutated seed, the source
//     labeling.
//
// A shard store's engine carries its shard map, and answers what the decoder
// answers over the labels with each absent one given its header stub
// ([fat=0][rank]), or refuses the pair as not resident.
//
// Seeds are real images of every store shape — id-ordered, degree-ordered, a
// shard, pll, bdist — and images both must reject: a retired version-1
// image, version-2 stamps, a degree-ordered store with the retired identifier
// block (layout "degree"), blobs whose last label ends in a partial word, and
// shard stores with header stubs or in id order.
func FuzzReadBytes(f *testing.F) {
	image := func(file *File) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, file); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		return buf.Bytes()
	}
	g, err := gen.ChungLuPowerLaw(60, 2.5, 2, 5)
	if err != nil {
		f.Fatal(err)
	}
	params := map[string]string{"n": strconv.Itoa(g.N())}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		f.Fatal(err)
	}
	degSlab, degOrder, _ := lab.ArenaLayout()
	for _, order := range [][]int32{degOrder, nil} {
		slab := degSlab
		if order == nil {
			slab = vertexOrder(f, degSlab, lab.BitLens(), degOrder)
		}
		file, err := NewPermutedArenaFile(lab.Scheme(), params, slab, lab.BitLens(), order)
		if err != nil {
			f.Fatal(err)
		}
		img := image(file)
		if order != nil {
			f.Add(degreeLayoutImage(f, file))
		}
		// The image again, stamped with the retired version 2, and with its
		// blob cut back to the labels' last byte (blob length to match), so
		// that the last label ends in a partial word: both readers refuse
		// either.
		old := slices.Clone(img)
		old[4] = 2
		f.Add(old)
		labelBytes := 0
		for _, bits := range lab.BitLens() {
			labelBytes += bitstr.SlabLabelBytes(bits)
		}
		cut := corruptBlobLen(f, img, len(slab), uint64(labelBytes))
		f.Add(cut[:len(cut)-len(slab)+labelBytes])
	}
	shards, _ := shardStores(f, g, 3)
	image(shards[1])
	f.Add(hashOwnedImage(f, g))
	_, arenas := distArenas(f)
	for kind, a := range arenas {
		file, err := NewDistArenaFile("dist-"+kind, params, a)
		if err != nil {
			f.Fatal(err)
		}
		image(file)
	}
	_, labels := sampleFile(f)
	f.Add(v1Image("sparse(c=2)", labels))
	f.Add(retiredShardImage(f, g, false))
	f.Add(retiredShardImage(f, g, true))
	// Eight absent labels in vertex order, no params, an empty blob: an
	// engine builds over it (each absent label's identifier is its rank,
	// here its vertex) and answers only self pairs.
	f.Add([]byte("PLLB\x03\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		mapped, errMapped := ReadBytes(data)
		streamed, errStreamed := Read(bytes.NewReader(data))
		if (errMapped == nil) != (errStreamed == nil) {
			t.Fatalf("ReadBytes err = %v, Read err = %v", errMapped, errStreamed)
		}
		if errMapped != nil {
			return
		}
		if data[4] != formatVersion {
			t.Fatalf("both readers accepted a version-%d image", data[4])
		}
		n := mapped.N()
		_, sharded := mapped.Shard()
		if streamed.N() != n || (mapped.Labels == nil) != sharded || (streamed.Labels == nil) != sharded {
			t.Fatalf("N = %d / %d, shard store %v, Labels %d / %d", n, streamed.N(), sharded, len(mapped.Labels), len(streamed.Labels))
		}
		mappedLabels, streamedLabels := labelViews(mapped), labelViews(streamed)
		for v, l := range mappedLabels {
			clean, err := bitstr.Wrap(slices.Clone(l.Bytes()), l.Len())
			if err != nil || !clean.Equal(streamedLabels[v]) {
				t.Fatalf("label %d differs between ReadBytes and Read (%v)", v, err)
			}
			if !sharded && !mapped.Labels[v].Equal(l) {
				t.Fatalf("label %d: ReadBytes' view differs from its arena", v)
			}
		}
		if n == 0 {
			return
		}
		pairs := [][2]int{{0, 0}, {0, n - 1}, {n - 1, 0}, {n / 2, n / 3}}
		for i := 0; i < n && i < 48; i++ {
			pairs = append(pairs, [2]int{i, (i * 7) % n}, [2]int{(i * 5) % n, i})
		}
		if da, ok := mapped.DistArena(); ok {
			db, _ := streamed.DistArena()
			ea, errA := core.NewDistEngine(da)
			eb, errB := core.NewDistEngine(db)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("distance engine: mapped err = %v, streamed err = %v", errA, errB)
			}
			if errA != nil {
				return
			}
			for _, p := range pairs {
				a, _ := ea.Dist(p[0], p[1])
				b, _ := eb.Dist(p[0], p[1])
				if a != b {
					t.Fatalf("Dist(%d,%d) = %d mapped, %d streamed", p[0], p[1], a, b)
				}
			}
			return
		}
		engine := func(f *File) (*core.QueryEngine, error) {
			slab, bitLens, order, _ := f.ArenaLayout()
			e, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
			if m, ok := f.Shard(); ok && err == nil {
				err = e.SetShard(m)
			}
			return e, err
		}
		ea, errA := engine(mapped)
		eb, errB := engine(streamed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("engine: mapped err = %v, streamed err = %v", errA, errB)
		}
		if errA != nil {
			return // not fat/thin labels: nothing to serve
		}
		_, bitLens, _, _ := streamed.ArenaLayout()
		absent := slices.Contains(bitLens, 0) // an engine holding absent labels owns only its shard's range
		stubbed := withStubs(streamed, streamedLabels)
		dec := core.NewFatThinDecoder(n)
		for _, p := range pairs {
			want, wantErr := dec.Adjacent(stubbed[p[0]], stubbed[p[1]])
			a, errA := ea.Adjacent(p[0], p[1])
			b, errB := eb.Adjacent(p[0], p[1])
			if (sharded || absent) && errors.Is(errA, core.ErrNotResident) && errors.Is(errB, core.ErrNotResident) {
				continue
			}
			if a != want || b != want || (errA == nil) != (wantErr == nil) || (errB == nil) != (wantErr == nil) {
				t.Fatalf("Adjacent(%d,%d): decoder %v (%v), mapped engine %v (%v), streamed engine %v (%v)",
					p[0], p[1], want, wantErr, a, errA, b, errB)
			}
		}
	})
}

// labelViews returns a loaded store's labels, id-indexed, as views cut from
// its arena — a shard store has no Labels.
func labelViews(f *File) []bitstr.String {
	slab, bitLens, order, _ := f.ArenaLayout()
	labels := make([]bitstr.String, len(bitLens))
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	for walk.Next() {
		v, off := walk.Label()
		labels[v] = bitstr.SlabLabel(slab, off, bitLens[v])
	}
	return labels
}

// withStubs returns a store's labels with each absent one (0 bits) replaced by
// the header stub its identifier, the label's rank, makes: the labels a
// decoder can read a pair off. With no order, rank r is vertex r.
func withStubs(f *File, labels []bitstr.String) []bitstr.String {
	_, bitLens, order, _ := f.ArenaLayout()
	w := bitstr.WidthFor(uint64(len(bitLens)))
	out := slices.Clone(labels)
	for r := range bitLens {
		v := r
		if order != nil {
			v = int(order[r])
		}
		if bitLens[v] == 0 {
			var b bitstr.Builder
			b.AppendBit(false)
			b.AppendUint(uint64(r), w)
			out[v] = b.String()
		}
	}
	return out
}
