package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitstr"
)

// A thin list of cnt identifiers of w bits is held in its header record when
// cnt·w <= 64 (an empty list included), and such a list must be sorted. TestInlineBoundary
// hand-packs labelings with lists on and around that boundary for every id
// width a test can build cheaply and pins the kernel, the scalar probe and
// FatThinDecoder to one another on them: answers, errors and every QueryTally
// field, over an id-ordered slab, a permuted one and a 3-shard split.
// An unsorted record-held list is refused at build instead.

// inlineShape is one thin list of the boundary test: its length, and whether
// it is stored in descending order — unsorted, which construction refuses for
// a record-held list and accepts for a slab-held one.
type inlineShape struct {
	name       string
	cnt        int
	descending bool
}

// refused reports whether the engine build refuses a list of this shape at id
// width w: an unsorted one its header record would hold.
func (sh inlineShape) refused(w int) bool { return sh.descending && sh.cnt*w <= 64 }

// inlineShapes lists, for id width w, an empty list, one id, one id either
// side of the longest record-held list, that list sorted and unsorted, and a
// long list sorted and unsorted.
func inlineShapes(w int) []inlineShape {
	most := 64 / w
	return []inlineShape{
		{"boundary", most, false},
		{"unsorted", most, true},
		{"below", most - 1, false},
		{"above", most + 1, false},
		{"empty", 0, false},
		{"one", 1, false},
		{"long", 3*most + 5, false},
		{"unsorted-long", 3*most + 5, true},
	}
}

// inlineLabels packs an n = 2^w labeling: vertex 0 is fat with a one-bit
// vector, vertex n-1-j carries shapes[j] (ids spread over [0, n)), every other
// vertex is thin with an empty list. Identifier v is vertex v's. It returns
// the labels and each vertex's list.
func inlineLabels(w int, shapes []inlineShape) ([]bitstr.String, [][]uint64) {
	n := 1 << w
	lists := make([][]uint64, n)
	for j, sh := range shapes {
		list := make([]uint64, sh.cnt)
		for i := range list {
			list[i] = uint64((i + 1) * n / (sh.cnt + 1) % n)
		}
		if sh.descending {
			slices.Reverse(list)
		}
		lists[n-1-j] = list
	}
	labels := make([]bitstr.String, n)
	for v := range labels {
		var b bitstr.Builder
		b.AppendBit(v == 0)
		b.AppendUint(uint64(v), w)
		if v == 0 {
			b.AppendBit(false)
		}
		for _, x := range lists[v] {
			b.AppendUint(x, w)
		}
		labels[v] = b.String()
	}
	return labels, lists
}

// inlineBuild is one engine build of the boundary test: a slab, its labels'
// lengths and physical order, and the shard the engine serves (Count 0 for
// the whole labeling).
type inlineBuild struct {
	slab    []byte
	bitLens []int
	order   []int32
	shard   ShardMap
}

func (b inlineBuild) engine() (*QueryEngine, error) {
	e, err := NewQueryEngineFromPermutedArena(b.slab, b.bitLens, b.order)
	if err != nil || b.shard.Count == 0 {
		return e, err
	}
	return e, e.SetShard(b.shard)
}

// inlineBuilds lays labels out as an id-ordered slab, the same slab under
// the identity permutation — since identifier v is vertex v's, the one
// permutation the slab contract admits — and, when n allows, the three shards
// of a range split of the permuted slab.
func inlineBuilds(t *testing.T, labels []bitstr.String) []inlineBuild {
	t.Helper()
	ranks := make([]int32, len(labels))
	for r := range ranks {
		ranks[r] = int32(r)
	}
	slab, bitLens := bitstr.PackSlab(labels)
	builds := []inlineBuild{{slab: slab, bitLens: bitLens}, {slab: slab, bitLens: bitLens, order: ranks}}
	if len(labels) >= 3 {
		arenas, err := ShardLabelArenas(slab, bitLens, ranks, 3, ShardRange)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range arenas {
			builds = append(builds, inlineBuild{a.Slab, a.BitLens, ranks, ShardMap{Count: 3, Index: i, Fn: ShardRange}})
		}
	}
	return builds
}

// inlineEngines builds an engine for each of inlineBuilds' layouts.
func inlineEngines(t *testing.T, labels []bitstr.String) []*QueryEngine {
	t.Helper()
	var engines []*QueryEngine
	for _, b := range inlineBuilds(t, labels) {
		e, err := b.engine()
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	return engines
}

// inlinePairs is every ordered pair over a vertex set that holds the ends of
// the id range, the list owners, and every listed id and its neighbours, in a
// fixed shuffled order so a block mixes the kinds of probe.
func inlinePairs(n int, lists [][]uint64) [][2]int {
	set := map[int]bool{0: true, 1 % n: true, n / 2: true, n - 1: true}
	for v, list := range lists {
		if len(list) > 0 {
			set[v] = true
		}
		for _, x := range list {
			for _, d := range []int{-1, 0, 1} {
				set[(int(x)+d+n)%n] = true
			}
		}
	}
	var vs []int
	for v := range set {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	var pairs [][2]int
	for _, u := range vs {
		for _, v := range vs {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

func TestInlineBoundary(t *testing.T) {
	for _, w := range []int{1, 2, 3, 16, 17} {
		n := 1 << w
		shapes := inlineShapes(w)
		// unsorted-long gets labelings of its own, so the rows before it keep
		// their groups.
		for _, set := range [][]inlineShape{shapes[:len(shapes)-1], shapes[len(shapes)-1:]} {
			// Small widths have fewer vertices than shapes: one labeling per
			// group of shapes that fits beside the fat vertex.
			for lo := 0; lo < len(set); lo += n - 1 {
				testInlineGroup(t, w, set[lo:min(lo+n-1, len(set))])
			}
		}
	}
}

// testInlineGroup pins one labeling of the boundary test. A refused row's
// vertex carries an empty list in the labeling the engines serve; the
// labeling with its unsorted list is held to the refusal by the same layout.
func testInlineGroup(t *testing.T, w int, group []inlineShape) {
	n := 1 << w
	served := slices.Clone(group)
	var refused []int
	for j, sh := range group {
		if sh.refused(w) {
			served[j] = inlineShape{name: sh.name}
			refused = append(refused, n-1-j)
		}
	}
	whole, wholeLists := inlineLabels(w, group)
	refusals := inlineBuilds(t, whole)
	labels, lists := inlineLabels(w, served)
	pairs := inlinePairs(n, lists)
	dec := NewFatThinDecoder(n)
	hidden := false // an unsorted list hid a listed id from the search
	var names []string
	for _, sh := range group {
		names = append(names, sh.name)
	}
	for i, e := range inlineEngines(t, labels) {
		layout := "degree"
		if i == 0 {
			layout = "id"
		}
		t.Run(fmt.Sprintf("w%d/%s/%s/%s", w, strings.Join(names, "+"), layout, engineName(e)), func(t *testing.T) {
			if e.w != w {
				t.Fatalf("engine id width %d, want %d", e.w, w)
			}
			if len(refused) > 0 {
				pinInlineRefusal(t, refusals[i], whole, refused, inlinePairs(n, wholeLists))
			}
			for _, p := range pairs {
				var tally QueryTally
				got, err := e.adjacentTallied(p[0], p[1], &tally)
				if errors.Is(err, ErrNotResident) {
					continue // pinSpan below holds the kernel to it
				}
				want, werr := dec.Adjacent(labels[p[0]], labels[p[1]])
				if fmt.Sprint(err) != fmt.Sprint(werr) || got != want {
					t.Fatalf("%v: engine %v, %v; decoder %v, %v", p, got, err, want, werr)
				}
				// The probe is charged to the record exactly when it
				// searched a list of at most 64/w ids.
				list := lists[max(p[0], p[1])]
				held := tally.thin == 1 && len(list)*w <= 64
				if (tally.inline == 1) != held {
					t.Fatalf("%v: tally %+v for a list of %d ids", p, tally, len(list))
				}
				if tally.thin == 1 && !got && slices.Contains(list, uint64(min(p[0], p[1]))) {
					hidden = true
				}
			}
			pinSpan(t, e, pairs)
			ok := answerable(e, pairs)
			for _, skip := range []int{0, 1, 7, ProbeBlock - 1} {
				pinSpan(t, e, ok[min(skip, len(ok)):])
			}
		})
	}
	for _, sh := range served {
		if sh.descending && !hidden {
			t.Errorf("w=%d: no listed id of the unsorted list was missed by the search; the row pins nothing", w)
		}
	}
}

// pinInlineRefusal holds build b of labels, whose vertices refused carry
// unsorted record-held lists, to failing with ErrBadLabel naming one of them
// when b holds one's body (a shard owning none leaves them absent and builds), and
// FatThinDecoder to answering every pair of labels all the same.
func pinInlineRefusal(t *testing.T, b inlineBuild, labels []bitstr.String, refused []int, pairs [][2]int) {
	t.Helper()
	n := len(labels)
	lo, hi := 0, n
	if b.shard.Count > 0 {
		lo, hi = b.shard.Range(n)
	}
	var want []string
	for _, v := range refused {
		if lo <= v && v < hi {
			want = append(want, fmt.Sprintf("label %d at rank %d: record-held list of", v, v))
		}
	}
	_, err := b.engine()
	named := slices.ContainsFunc(want, func(s string) bool { return strings.Contains(fmt.Sprint(err), s) })
	switch {
	case len(want) == 0 && err != nil:
		t.Fatalf("build holding no unsorted record-held list: %v", err)
	case len(want) > 0 && (!errors.Is(err, ErrBadLabel) || !named):
		t.Fatalf("build holding unsorted record-held lists: err %v, want ErrBadLabel naming one of %v", err, refused)
	}
	dec := NewFatThinDecoder(n)
	for _, p := range pairs {
		if _, err := dec.Adjacent(labels[p[0]], labels[p[1]]); err != nil {
			t.Fatalf("%v: decoder: %v", p, err)
		}
	}
}

// TestEmptyListRecordAnswered: a probe of an empty thin list is answered
// from the header record — counted inline, as the scalar probe and the batch
// kernel both count it — so engine_branch_thin_total minus
// engine_branch_thin_inline_total is the number of slab-held searches.
func TestEmptyListRecordAnswered(t *testing.T) {
	labels, _ := inlineLabels(3, []inlineShape{{"empty", 0, false}})
	for _, b := range inlineBuilds(t, labels)[:2] {
		e, err := b.engine()
		if err != nil {
			t.Fatal(err)
		}
		var m EngineMetrics
		e.AttachMetrics(&m)
		// Vertex 7's list is empty and its identifier the larger of each pair.
		pairs := [][2]int{{7, 1}, {2, 7}, {7, 6}}
		for _, p := range pairs {
			if got, err := e.Adjacent(p[0], p[1]); got || err != nil {
				t.Fatalf("Adjacent%v = %v, %v", p, got, err)
			}
		}
		got, err := e.AdjacentMany(pairs, nil)
		if err != nil || slices.Contains(got, true) {
			t.Fatalf("AdjacentMany = %v, %v", got, err)
		}
		if thin, inline := m.ThinBranch.Load(), m.ThinInline.Load(); thin != 6 || inline != 6 {
			t.Fatalf("%d thin probes, %d record-answered; want 6 and 6", thin, inline)
		}
	}
}

// TestInlineSearchMatchesBinary holds the one-word match of a record-held
// list to a binary search of the same sorted list, for every id width the
// engine packs and every list length its record holds, 0 included: random non-decreasing
// lists with duplicates, probed for 0, 2^w-1, each listed id and random ids,
// through the scalar probe, so the per-length mask the engine derives from
// its constant is under test too. inlineSorted is held to slices.IsSorted on
// the same lists and on shuffled copies.
func TestInlineSearchMatchesBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	check := func(e *QueryEngine, list []uint64) {
		t.Helper()
		w := e.w
		var word uint64
		for _, x := range list {
			word = word<<uint(w) | x
		}
		if got, want := inlineSorted(word, len(list), w), slices.IsSorted(list); got != want {
			t.Fatalf("w=%d %v: inlineSorted %v, want %v", w, list, got, want)
		}
		if !slices.IsSorted(list) {
			return
		}
		top := uint64(1)<<uint(w) - 1
		targets := append([]uint64{0, top}, list...)
		for range 8 {
			targets = append(targets, rng.Uint64()&top)
		}
		m := vertexMeta{off: int64(word), word: uint64(len(list)) << 1}
		for _, target := range targets {
			var tally QueryTally
			_, want := slices.BinarySearch(list, target)
			if got := e.thinProbe(m, target, &tally); got != want || tally.inline != 1 {
				t.Fatalf("w=%d list %v target %d: %v (tally %+v), want %v", w, list, target, got, tally, want)
			}
		}
	}
	for w := 1; w <= 32; w++ {
		e := &QueryEngine{w: w}
		e.inlineMax, e.inlineRep = inlineLayout(w)
		if e.inlineMax != 64/w {
			t.Fatalf("w=%d: inlineMax %d", w, e.inlineMax)
		}
		for cnt := 0; cnt <= e.inlineMax; cnt++ {
			for range 20 {
				// Few distinct values make duplicates and runs likely.
				span := uint64(1)<<uint(w) - 1
				if rng.Intn(2) == 0 {
					span = uint64(rng.Intn(4))
				}
				base := rng.Uint64() & (uint64(1)<<uint(w) - 1)
				list := make([]uint64, cnt)
				for i := range list {
					list[i] = min(base+rng.Uint64()%(span+1), uint64(1)<<uint(w)-1)
				}
				slices.Sort(list)
				check(e, list)
				rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
				check(e, list)
			}
		}
	}
	// The edge where the list fills the whole word: w = 1, cnt = 64.
	e := &QueryEngine{w: 1}
	e.inlineMax, e.inlineRep = inlineLayout(1)
	for zeros := 0; zeros <= 64; zeros++ {
		list := make([]uint64, 64)
		for i := zeros; i < 64; i++ {
			list[i] = 1
		}
		check(e, list)
	}
}
