package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/distance"
)

// pllCase is a hand-built PLL labeling: per-vertex (hub rank, distance)
// lists handed straight to the slab pipeline, so the shapes the engine's
// construction decoder meets — long and empty lists, wide entries, the slab
// tail — are chosen, not hoped for. The test queries every pair among vs plus
// the listed extra pairs.
type pllCase struct {
	name    string
	entries [][]core.DistEntry
	maxDist int32
	vs      []int
	pairs   [][2]int
	// wordBits is the hub record word width the engine must pick: 32 when
	// a tail entry fits 32 bits and distances fit a byte, else 64.
	wordBits int
}

// hubList returns cnt entries over ranks first, first+step, ... with
// distances cycling through 0..maxDist.
func hubList(cnt, first, step int, maxDist int32) []core.DistEntry {
	list := make([]core.DistEntry, cnt)
	for i := range list {
		list[i] = core.DistEntry{ID: int32(first + i*step), D: int32(i*7+first) % (maxDist + 1)}
	}
	return list
}

// addProbes gives every entry of vertex v's list a partner vertex (from
// base up) whose only hub is that entry's, and queues the pair: a minimum
// over many common hubs can hide one mis-decoded entry, a single common hub
// cannot.
func (c *pllCase) addProbes(v, base int) {
	for j, e := range c.entries[v] {
		c.entries[base+j] = []core.DistEntry{{ID: e.ID, D: int32(j) % (c.maxDist + 1)}}
		c.pairs = append(c.pairs, [2]int{v, base + j}, [2]int{base + j, v})
	}
}

// pllKernelCases covers entry counts from 0 to 700, very unequal and
// disjoint lists, dw = 32 entries whose code plus distance fill 57 bits and
// more — the widest entries the construction decoder reads — and the hub
// records' head/tail boundary (headTailCase) in both record widths.
func pllKernelCases() []pllCase {
	const n = 1 << 12
	blocks := pllCase{name: "block-boundaries", entries: make([][]core.DistEntry, n), maxDist: 9, wordBits: 32}
	for v, cnt := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 700} {
		blocks.entries[v] = hubList(cnt, v%3, 1, 9)            // dense: every list shares hubs
		blocks.entries[16+v] = hubList(cnt, 5+v, 1+v%4, 9)     // strided: partial overlap
		blocks.entries[32+v] = hubList(min(cnt, 300), 1, 3, 9) // ranks 1 mod 3 ...
		blocks.entries[48+v] = hubList(min(cnt, 300), 2, 3, 9) // ... never meet ranks 2 mod 3
	}
	for v := 0; v < 64; v++ {
		blocks.vs = append(blocks.vs, v)
	}
	blocks.addProbes(10, 1000)
	blocks.addProbes(16+10, 2000)
	blocks.addProbes(16+5, 3000)

	// dw = 32 (maxDist near 2^31). A rank gap near 2^16 codes in 25 bits, so
	// code + distance fill 57 bits exactly; a gap near 2^17 codes in 27 and
	// the entry spans 59. Distances at 2^29 and above exercise the decoders'
	// 1<<30 "no common hub" cap, and a full 32-bit distance beside a rank in
	// the table's word.
	const wideN = 1 << 20
	wide := pllCase{name: "wide-entries", entries: make([][]core.DistEntry, wideN), maxDist: math.MaxInt32, wordBits: 64}
	for v := 0; v < 16; v++ {
		gap, cnt := 1<<17, 3+v%5
		if v >= 8 {
			gap, cnt = 1<<16, v-5
		}
		var list []core.DistEntry
		for i := 0; i < cnt; i++ {
			list = append(list, core.DistEntry{ID: int32((i+1)*gap + (i*v)%3), D: int32(i*1000 + 3*v + 1)})
		}
		// Small gaps after the large ones: same-window and second-read
		// entries interleave.
		last := list[len(list)-1].ID
		list = append(list,
			core.DistEntry{ID: last + 1, D: 1 << 29},
			core.DistEntry{ID: last + 2, D: math.MaxInt32})
		wide.entries[v] = list
		wide.vs = append(wide.vs, v)
		wide.addProbes(v, 1000+32*v)
	}
	// dw = 9 (maxDist 300) fits a 32-bit tail entry beside a 12-bit rank, but
	// not a byte-wide head distance: the 64-bit records of a store with
	// w + dw <= 32.
	return []pllCase{blocks, wide, headTailCase("head-tail/32", 9, 32), headTailCase("head-tail/64", 300, 64)}
}

// headTailCase puts hub lists on both sides of the hub records' head, the
// pllHeadHubs = 256 top-ranked hubs kept as a bitmap: hubs at ranks 255 and
// 256, lists wholly in the head and wholly in the tail, pairs whose best
// common hub is only in the head, only in the tail or in both, and pairs
// with no common hub in either.
func headTailCase(name string, maxDist int32, wordBits int) pllCase {
	const n = 1 << 12
	c := pllCase{name: name, entries: make([][]core.DistEntry, n), maxDist: maxDist, wordBits: wordBits}
	list := func(ranks ...int32) []core.DistEntry {
		out := make([]core.DistEntry, len(ranks)/2)
		for i := range out {
			out[i] = core.DistEntry{ID: ranks[2*i], D: ranks[2*i+1]}
		}
		return out
	}
	// (rank, distance) pairs, ranks ascending.
	c.entries[0] = list(255, 3, 256, 4)                  // one hub either side of the boundary
	c.entries[1] = list(255, 2)                          // the last head hub alone
	c.entries[2] = list(256, 1)                          // the first tail hub alone
	c.entries[3] = hubList(256, 0, 1, min(maxDist, 9))   // the whole head, no tail
	c.entries[4] = hubList(345, 256, 1, min(maxDist, 9)) // a tail only, from rank 256
	c.entries[5] = list(10, 1, 300, 5)                   // 5–6: best only in the head
	c.entries[6] = list(10, 1, 300, 5, 301, 0)
	c.entries[7] = list(10, 5, 300, 1) // 7–8: best only in the tail
	c.entries[8] = list(0, 0, 10, 5, 300, 1)
	c.entries[9] = list(64, 2, 255, 7, 256, 1, 999, 8) // 9–10: best in both, equal
	c.entries[10] = list(64, 2, 255, 0, 256, 3, 999, 0)
	c.entries[11] = list(20, 1, 400, 1) // 11–12: no common hub
	c.entries[12] = list(21, 1, 401, 1)
	c.entries[13] = hubList(64, 0, 2, min(maxDist, 9)) // even head ranks ...
	c.entries[14] = hubList(64, 1, 2, min(maxDist, 9)) // ... never meet odd ones
	for v := 0; v < 16; v++ {
		c.vs = append(c.vs, v)
	}
	c.addProbes(3, 1000)
	c.addProbes(4, 2000)
	c.addProbes(0, 3000)
	return c
}

// bruteDist is the definition the kernel implements: the minimum summed
// distance over common hubs below the decoders' 1<<30 cap, -1 without one.
func bruteDist(a, b []core.DistEntry) int {
	best := int64(1 << 30)
	for _, x := range a {
		for _, y := range b {
			if x.ID == y.ID && int64(x.D)+int64(y.D) < best {
				best = int64(x.D) + int64(y.D)
			}
		}
	}
	if best == 1<<30 {
		return -1
	}
	return int(best)
}

// reversedOrder is a physical layout that differs from the identity
// everywhere: label v sits at rank n-1-v.
func reversedOrder(n int) []int32 {
	order := make([]int32, n)
	for r := range order {
		order[r] = int32(n - 1 - r)
	}
	return order
}

// checkPLLPair pins Dist(u, v) to the checked reference walk of the slab
// and to the brute-force definition over the source entry lists.
func checkPLLPair(t *testing.T, eng *core.DistEngine, rd *core.RefDist, entries [][]core.DistEntry, u, v int) {
	t.Helper()
	got, err := eng.Dist(u, v)
	if err != nil {
		t.Fatalf("Dist(%d,%d): %v", u, v, err)
	}
	ref, err := rd.Dist(u, v)
	if err != nil {
		t.Fatalf("RefDist(%d,%d): %v", u, v, err)
	}
	want := 0
	if u != v {
		want = bruteDist(entries[u], entries[v])
	}
	if got != ref || got != want {
		t.Fatalf("Dist(%d,%d) = %d, reference walk %d, definition %d (%d and %d entries)",
			u, v, got, ref, want, len(entries[u]), len(entries[v]))
	}
}

// buildWithRef builds an engine over slab and the arena's lengths, layout
// and parameters, and the slab reference walk beside it.
func buildWithRef(t *testing.T, slab []byte, arena *core.DistArena) (*core.DistEngine, *core.RefDist) {
	t.Helper()
	eng, err := core.NewDistEngineFromArena(slab, arena.BitLens, arena.Order, arena.Params)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := core.NewRefDist(eng, arena.BitLens, arena.Order)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rd
}

// checkPLLPairs checks every ordered pair among vs.
func checkPLLPairs(t *testing.T, eng *core.DistEngine, rd *core.RefDist, entries [][]core.DistEntry, vs []int) {
	t.Helper()
	for _, u := range vs {
		for _, v := range vs {
			checkPLLPair(t, eng, rd, entries, u, v)
		}
	}
}

// TestDistPLLKernelEdges builds engines over the edge shapes above, in both
// an identity and a permuted layout, checks the record width each picks, and
// pins every answer the kernel gives over the decoded hub records to the
// slab's bits and to the definition.
func TestDistPLLKernelEdges(t *testing.T) {
	for _, tc := range pllKernelCases() {
		for _, lay := range []struct {
			name  string
			order []int32
		}{{"id", nil}, {"reversed", reversedOrder(len(tc.entries))}} {
			t.Run(tc.name+"/"+lay.name, func(t *testing.T) {
				arena, err := core.EncodePLLArena(tc.entries, tc.maxDist, lay.order, 2)
				if err != nil {
					t.Fatal(err)
				}
				eng, rd := buildWithRef(t, arena.Slab, arena)
				if got := eng.HubWordBits(); got != tc.wordBits {
					t.Fatalf("dw = %d: hub records of %d-bit words, want %d", arena.Params.DW, got, tc.wordBits)
				}
				checkPLLPairs(t, eng, rd, tc.entries, tc.vs)
				for _, p := range tc.pairs {
					checkPLLPair(t, eng, rd, tc.entries, p[0], p[1])
				}
			})
		}
	}
}

// TestDistScratchClean: every way a PLL query ends — a long batch, a span cut
// short by a range error, a self pair, an unreachable pair, an empty label —
// leaves the pooled rank scratch all zero. A slot left dirty would answer
// for a hub the next pair does not have.
func TestDistScratchClean(t *testing.T) {
	for _, tc := range pllKernelCases() {
		for _, lay := range []struct {
			name  string
			order []int32
		}{{"id", nil}, {"reversed", reversedOrder(len(tc.entries))}} {
			t.Run(tc.name+"/"+lay.name, func(t *testing.T) {
				arena, err := core.EncodePLLArena(tc.entries, tc.maxDist, lay.order, 2)
				if err != nil {
					t.Fatal(err)
				}
				eng, _ := buildWithRef(t, arena.Slab, arena)
				clean := func(after string) {
					t.Helper()
					if dirty := eng.DirtyScratchSlots(); dirty != 0 {
						t.Fatalf("after %s: %d scratch slots left non-zero", after, dirty)
					}
				}
				vs := append(slices.Clone(tc.vs), 1000, 1001, 2000, 3000)
				rng := rand.New(rand.NewSource(7))
				pairs := make([][2]int, 4096)
				for i := range pairs {
					pairs[i] = [2]int{vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]}
				}
				if _, err := eng.DistMany(pairs, nil); err != nil {
					t.Fatal(err)
				}
				clean("a 4096-pair DistMany")

				n := eng.N()
				res := make([]int, 32)
				for _, k := range []int{0, 5, 31} {
					span := slices.Clone(pairs[:32])
					span[k] = [2]int{span[k][0], n}
					var tally core.QueryTally
					if done, err := eng.DistSpan(span, res, &tally); done != k || !errors.Is(err, core.ErrVertexRange) {
						t.Fatalf("DistSpan with pair %d out of range: answered %d, %v", k, done, err)
					}
					clean(fmt.Sprintf("a DistSpan failing at pair %d", k))
				}

				// Probes 1000 and 1001 each hold one hub, a different one; the
				// top of the id space holds no label.
				if bruteDist(tc.entries[1000], tc.entries[1001]) != -1 || len(tc.entries[n-1]) != 0 {
					t.Fatal("case lost its unreachable probe pair or its empty top label")
				}
				for _, q := range []struct {
					name string
					u, v int
					want int
				}{
					{"a self pair", 10, 10, 0},
					{"an unreachable pair", 1000, 1001, -1},
					{"a pair with an empty label", 10, n - 1, -1},
				} {
					if d, err := eng.Dist(q.u, q.v); d != q.want || err != nil {
						t.Fatalf("Dist(%d,%d) on %s = %d, %v; want %d", q.u, q.v, q.name, d, err, q.want)
					}
					clean(q.name)
				}
			})
		}
	}
}

// TestDistEngineConcurrentSpans runs spans and single queries over
// overlapping pairs from 8 goroutines on one PLL engine: each call takes its
// own scratch from the pool, so every answer equals the reference walk's
// (and, under -race, no two calls share a slot).
func TestDistEngineConcurrentSpans(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(300, 2.5, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := distance.PLLScheme{}.EncodeArena(g, 1, core.LayoutDegree)
	if err != nil {
		t.Fatal(err)
	}
	eng, rd := buildWithRef(t, arena.Slab, arena)
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]int, 256)
	want := make([]int, len(pairs))
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
		if want[i], err = rd.Dist(pairs[i][0], pairs[i][1]); err != nil {
			t.Fatal(err)
		}
	}
	const span = 32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := make([]int, span)
			var tally core.QueryTally
			for i := 0; i < 200; i++ {
				lo := (w*37 + i*13) % (len(pairs) - span)
				if i%4 == 3 {
					if d, err := eng.Dist(pairs[lo][0], pairs[lo][1]); d != want[lo] || err != nil {
						t.Errorf("worker %d: Dist%v = %d, %v; want %d", w, pairs[lo], d, err, want[lo])
						return
					}
					continue
				}
				if done, err := eng.DistSpan(pairs[lo:lo+span], res, &tally); done != span || err != nil {
					t.Errorf("worker %d: DistSpan at %d answered %d, %v", w, lo, done, err)
					return
				}
				for j, d := range res {
					if d != want[lo+j] {
						t.Errorf("worker %d: DistSpan at %d: pair %v = %d, want %d", w, lo, pairs[lo+j], d, want[lo+j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// pllLabelBits is the size of the PLL label holding list: the header, then
// per entry the δ code of its rank gap plus one and a dw-bit distance.
func pllLabelBits(list []core.DistEntry, headerBits, dw int) int {
	bits, prev := headerBits, int32(0)
	for _, e := range list {
		bits += bitstr.DeltaLen(uint64(e.ID-prev)+1) + dw
		prev = e.ID
	}
	return bits
}

// wordExactList draws strictly increasing hub ranks below n until the PLL
// label holding cnt of them is a whole number of 64-bit words: such a label
// has no padding, so its last entry ends on its own last bit.
func wordExactList(rng *rand.Rand, cnt, n, headerBits, dw int, maxDist int32) []core.DistEntry {
	for {
		list := make([]core.DistEntry, cnt)
		rank := -1
		for i := range list {
			gap := rng.Intn(n / cnt)
			if i > 0 {
				gap++
			}
			rank = max(rank, 0) + gap
			list[i] = core.DistEntry{ID: int32(rank), D: int32(rng.Intn(int(maxDist) + 1))}
		}
		if pllLabelBits(list, headerBits, dw)%64 == 0 {
			return list
		}
	}
}

// fillToWholeWords gives vertex filler the shortest run of hubs 0, 1, 2, …
// that makes the labels of entries take a whole number of 64-bit words in a
// byte-packed slab: with the physically last label a whole number of words
// too, its last entry then ends on the slab's last bit.
func fillToWholeWords(t *testing.T, entries [][]core.DistEntry, filler, headerBits, dw int, maxDist int32) {
	t.Helper()
	rest := 0
	for v, list := range entries {
		if v != filler {
			rest += bitstr.SlabLabelBytes(pllLabelBits(list, headerBits, dw))
		}
	}
	for k := 0; k < 64; k++ {
		if list := hubList(k, 0, 1, maxDist); (rest+bitstr.SlabLabelBytes(pllLabelBits(list, headerBits, dw)))%8 == 0 {
			entries[filler] = list
			return
		}
	}
	t.Fatalf("no filler of up to 64 hubs pads %d label bytes to a whole word", rest)
}

// physicalTail returns the label a walk of arena's slab visits last and the
// bit just past its end.
func physicalTail(t *testing.T, a *core.DistArena) (v int, end int64) {
	t.Helper()
	var off int64
	w := bitstr.NewSlabWalk(len(a.Slab), a.BitLens, a.Order)
	for w.Next() {
		v, off = w.Label()
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return v, off + int64(a.BitLens[v])
}

// TestDistPLLKernelSlabTail puts a label whose last entry ends on the slab's
// last bit at the physical end of the slab, so the construction decoder's
// final reads start inside the slab's last 8 bytes and must stay in its
// whole words, and queries that label against empty, short, matching and
// much longer partners.
func TestDistPLLKernelSlabTail(t *testing.T) {
	const n = 1 << 16
	const maxDist = 100               // dw = 7
	const headerBits, dw = 16 + 17, 7 // w + wCnt for n = 2^16
	rng := rand.New(rand.NewSource(41))
	for _, tailCnt := range []int{1, 2, 40, 63, 64, 65, 150} {
		for _, lay := range []struct {
			name  string
			order []int32
			tail  int // the vertex whose label is physically last
		}{{"id", nil, n - 1}, {"reversed", reversedOrder(n), 0}} {
			c := pllCase{entries: make([][]core.DistEntry, n), maxDist: maxDist}
			for v, cnt := range []int{0, 1, 30, 64, 65, 200} {
				c.entries[10+v] = hubList(cnt, v, 1, maxDist)
			}
			tail := wordExactList(rng, tailCnt, n, headerBits, dw, maxDist)
			c.entries[lay.tail] = tail
			// Partners that share every hub, exactly one each, and the last
			// one behind a long run of misses.
			c.entries[20] = append([]core.DistEntry(nil), tail...)
			c.addProbes(lay.tail, 1000)
			if last := tail[tailCnt-1].ID; last >= 300 {
				c.entries[21] = append(hubList(290, 0, 1, maxDist), core.DistEntry{ID: last, D: 3})
			}
			fillToWholeWords(t, c.entries, 30, headerBits, dw, maxDist)
			arena, err := core.EncodePLLArena(c.entries, maxDist, lay.order, 1)
			if err != nil {
				t.Fatal(err)
			}
			if bits := arena.BitLens[lay.tail]; bits%64 != 0 || arena.Params.DW != dw {
				t.Fatalf("tail label of %d bits at dw=%d: want whole words at dw=%d", bits, arena.Params.DW, dw)
			}
			if v, end := physicalTail(t, arena); v != lay.tail || end != int64(len(arena.Slab))*8 {
				t.Fatalf("label %d ends at bit %d of a %d-byte slab: want label %d ending on its last bit",
					v, end, len(arena.Slab), lay.tail)
			}
			// The same labels again over a slab with stray bytes after its last
			// whole word (a store padded to no word boundary): decoding must
			// neither read them nor count them as a label's bits.
			stray := append(slices.Clone(arena.Slab), 0xff, 0xff, 0xff)
			for name, slab := range map[string][]byte{"whole-words": arena.Slab, "stray-bytes": stray} {
				eng, rd := buildWithRef(t, slab, arena)
				t.Run(lay.name+"/"+name, func(t *testing.T) {
					checkPLLPairs(t, eng, rd, c.entries, []int{lay.tail, 10, 11, 12, 13, 14, 15, 20, 21, 30, 100})
					for _, p := range c.pairs {
						checkPLLPair(t, eng, rd, c.entries, p[0], p[1])
					}
				})
			}
		}
	}
}

// TestDistEncodersFirstErrorDeterministic feeds each arena encoder invalid
// entries in two different worker ranges: the plan phase must report the
// lowest vertex's error every time (and, under -race, without the workers
// sharing an error variable).
func TestDistEncodersFirstErrorDeterministic(t *testing.T) {
	const n = 64
	const workers = 4
	for round := 0; round < 20; round++ {
		entries := make([][]core.DistEntry, n)
		entries[3] = []core.DistEntry{{ID: 5, D: 1}, {ID: 5, D: 1}} // range 0: rank repeats
		entries[60] = []core.DistEntry{{ID: n, D: 1}}               // range 3: rank out of range
		_, err := core.EncodePLLArena(entries, 2, nil, workers)
		if err == nil || !strings.Contains(err.Error(), "pll label 3 entry 1") {
			t.Fatalf("round %d: EncodePLLArena error = %v, want label 3's", round, err)
		}

		fat := make([]bool, n)
		fatDist := make([][]int32, n)
		for v := range fatDist {
			fatDist[v] = []int32{1}
		}
		thin := make([][]core.DistEntry, n)
		thin[7] = []core.DistEntry{{ID: 9, D: 1}, {ID: 2, D: 1}} // range 0: ids descend
		fatDist[50] = []int32{1, 1}                              // range 3: ragged fat table
		_, err = core.EncodeBoundedArena(fat, fatDist, thin, 2, nil, workers)
		if err == nil || !strings.Contains(err.Error(), "bdist label 7 thin entry 1") {
			t.Fatalf("round %d: EncodeBoundedArena error = %v, want label 7's", round, err)
		}
	}
}

// TestDistEncodersRefuseBadOrder: a layout order that is not a permutation
// of the labels is refused by both distance encoders, as every reader's
// bitstr.SlabWalk refuses it — a repeated entry would leave a label
// unwritten and write another twice.
func TestDistEncodersRefuseBadOrder(t *testing.T) {
	entries := [][]core.DistEntry{{{ID: 0, D: 0}}, {{ID: 0, D: 1}}, {{ID: 0, D: 2}}}
	fat, fatDist, thin := make([]bool, 3), [][]int32{{0}, {1}, {2}}, make([][]core.DistEntry, 3)
	for _, tc := range []struct {
		order []int32
		want  string
	}{
		{[]int32{0, 0, 2}, "repeats label 0"},
		{[]int32{0, 1}, "permutation of 2 entries over 3 labels"},
		{[]int32{0, 3, 1}, "entry 1 = 3 of 3 labels"},
	} {
		if _, err := core.EncodePLLArena(entries, 2, tc.order, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("pll, order %v: err = %v, want %q", tc.order, err, tc.want)
		}
		if _, err := core.EncodeBoundedArena(fat, fatDist, thin, 2, tc.order, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bdist, order %v: err = %v, want %q", tc.order, err, tc.want)
		}
	}
}
