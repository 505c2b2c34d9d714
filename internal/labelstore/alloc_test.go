package labelstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// The write side's allocation gates: what the set-up path allocates between
// the encoder and the file must not grow with the number of labels, except
// for the one n/8-byte bitset a permutation check needs.

// arenaFixture encodes an n-vertex graph degree-ordered and splits it in
// three, returning what the store constructors take.
func arenaFixture(t *testing.T, n int) (lab *core.Labeling, arenas []core.ShardArena) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewPowerLawScheme(2.5)
	if lab, err = s.Encode(g); err != nil {
		t.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	if arenas, err = core.ShardLabelArenas(slab, lab.BitLens(), order, 3, core.ShardRange); err != nil {
		t.Fatal(err)
	}
	return lab, arenas
}

// allocatedBytes is the heap a single run of fn allocates: the least of five
// runs, since the process-wide counter also sees whatever the runtime and
// earlier tests' goroutines allocate meanwhile.
func allocatedBytes(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// leastAllocs is testing.AllocsPerRun over fn, the least of five rounds:
// AllocsPerRun counts process-wide mallocs, so a round can also see what
// earlier tests' goroutines allocate meanwhile, as allocatedBytes can.
func leastAllocs(fn func()) float64 {
	least := testing.AllocsPerRun(5, fn)
	for i := 1; i < 5; i++ {
		least = min(least, testing.AllocsPerRun(5, fn))
	}
	return least
}

// TestWriteAllocsIndependentOfN: Write of an arena file allocates its buffer,
// the merged params and the sorted keys — the same handful of objects at a
// thousand labels and at sixteen thousand, none per header value.
func TestWriteAllocsIndependentOfN(t *testing.T) {
	var counts []float64
	for _, n := range []int{1 << 10, 1 << 14} {
		lab, arenas := arenaFixture(t, n)
		_, order, _ := lab.ArenaLayout()
		params := map[string]string{"n": strconv.Itoa(n)}
		f, err := NewShardArenaFile(lab.Scheme(), params, arenas[0].Slab, arenas[0].BitLens, order,
			core.ShardMap{Count: 3, Index: 0, Fn: core.ShardRange})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, leastAllocs(func() {
			if err := Write(io.Discard, f); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] > 16 {
		t.Errorf("Write allocates %v objects at n = 2^10 and %v at 2^14; want equal and <= 16", counts[0], counts[1])
	}
}

// TestArenaFileConstructorsAllocNoPerLabelObjects: the constructors validate
// and mask in one walk and keep no per-label table — a File, a shard block
// and the walk's n/8-byte bitset is all they may allocate.
func TestArenaFileConstructorsAllocNoPerLabelObjects(t *testing.T) {
	const n = 1 << 14
	lab, arenas := arenaFixture(t, n)
	slab, order, _ := lab.ArenaLayout()
	bitLens := lab.BitLens()
	for name, build := range map[string]func() (*File, error){
		"NewPermutedArenaFile": func() (*File, error) {
			return NewPermutedArenaFile(lab.Scheme(), nil, slab, bitLens, order)
		},
		"NewShardArenaFile": func() (*File, error) {
			return NewShardArenaFile(lab.Scheme(), nil, arenas[1].Slab, arenas[1].BitLens, order,
				core.ShardMap{Count: 3, Index: 1, Fn: core.ShardRange})
		},
	} {
		var err error
		got := allocatedBytes(func() { _, err = build() })
		if err != nil {
			t.Fatal(err)
		}
		if limit := uint64(n/8 + 512); got > limit {
			t.Errorf("%s allocates %d bytes over %d labels; want <= n/8 + 512 = %d", name, got, n, limit)
		}
	}
}

// TestReadShortStreamAllocatesWhatArrives: a header declaring one 2^34-bit
// label and the matching 2 GiB blob, over a stream of a few hundred bytes,
// fails with ErrFormat having allocated about what the stream delivered —
// never a buffer sized by the declared blob.
func TestReadShortStreamAllocatesWhatArrives(t *testing.T) {
	img := append([]byte("PLLB"), formatVersion)
	img = binary.AppendUvarint(img, 1) // scheme "x"
	img = append(img, 'x')
	img = binary.AppendUvarint(img, 0)              // no params
	img = binary.AppendUvarint(img, 1)              // one label ...
	img = binary.AppendUvarint(img, maxLabelBits)   // ... of 2^34 bits
	img = binary.AppendUvarint(img, maxLabelBits/8) // blob: 2 GiB, as declared
	img = append(img, make([]byte, 300)...)
	var err error
	got := allocatedBytes(func() { _, err = Read(bytes.NewReader(img)) })
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("Read of a %d-byte stream declaring a 2 GiB blob: err = %v, want ErrFormat", len(img), err)
	}
	if got > 64<<10 {
		t.Errorf("Read allocated %d bytes over a %d-byte stream; want <= 64 KiB", got, len(img))
	}
}
