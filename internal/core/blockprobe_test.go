package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The batch probe kernel is pinned to the scalar probe: for any span of pairs
// AdjacentSpan must deliver the answers, the error (text and class), the
// answered count and every QueryTally field that calling adjacentTallied —
// what Adjacent runs — pair by pair in order does, whatever the block
// boundaries, the layout or the sharding.

// scalarSpan is the reference: the scalar probe, one pair at a time, stopping
// at the first failing pair.
func scalarSpan(e *QueryEngine, pairs [][2]int, res []bool, t *QueryTally) (int, error) {
	for i, p := range pairs {
		ans, err := e.adjacentTallied(p[0], p[1], t)
		if err != nil {
			return i, err
		}
		res[i] = ans
	}
	return len(pairs), nil
}

// pinSpan runs pairs through the reference and the kernel and compares
// everything observable.
func pinSpan(t *testing.T, e *QueryEngine, pairs [][2]int) {
	t.Helper()
	type outcome struct {
		done  int
		err   error
		res   []bool
		tally QueryTally
	}
	run := func(span func(*QueryEngine, [][2]int, []bool, *QueryTally) (int, error)) outcome {
		o := outcome{res: make([]bool, len(pairs))}
		o.done, o.err = span(e, pairs, o.res, &o.tally)
		return o
	}
	want := run(scalarSpan)
	got := run((*QueryEngine).AdjacentSpan)
	if got.done != want.done {
		t.Fatalf("kernel answered %d pairs, scalar %d (kernel err %v, scalar err %v)",
			got.done, want.done, got.err, want.err)
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("kernel error %q, scalar %q", got.err, want.err)
	}
	for _, class := range []error{ErrVertexRange, ErrNotResident, ErrBadLabel} {
		if errors.Is(got.err, class) != errors.Is(want.err, class) {
			t.Fatalf("kernel error %v and scalar error %v differ on %v", got.err, want.err, class)
		}
	}
	for i := 0; i < want.done; i++ {
		if got.res[i] != want.res[i] {
			t.Fatalf("pair %d %v: kernel %v, scalar %v", i, pairs[i], got.res[i], want.res[i])
		}
	}
	if got.tally != want.tally {
		t.Fatalf("tally: kernel %+v, scalar %+v", got.tally, want.tally)
	}
}

// enginesOver encodes g with the scheme and returns the unsharded engine
// followed by every shard engine of a 1-, 2- and 3-way range split (the 1-way
// "split" is the full slab with the trivial shard map attached, so the
// residency condition is exercised with everything resident).
func enginesOver(t *testing.T, g *graph.Graph, s *FatThinScheme) []*QueryEngine {
	t.Helper()
	slab, bitLens, order := encodeArena(t, g, s, false)
	build := func(slab []byte, bitLens []int, m ShardMap) *QueryEngine {
		e, err := NewQueryEngineFromPermutedArena(slab, bitLens, order)
		if err != nil {
			t.Fatal(err)
		}
		if m.Count > 0 {
			if err := e.SetShard(m); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	engines := []*QueryEngine{
		build(slab, bitLens, ShardMap{}),
		build(slab, bitLens, ShardMap{Count: 1, Fn: ShardRange}),
	}
	for _, count := range []int{2, 3} {
		arenas, err := ShardLabelArenas(slab, bitLens, order, count, ShardRange)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range arenas {
			engines = append(engines, build(a.Slab, a.BitLens, ShardMap{Count: count, Index: i, Fn: ShardRange}))
		}
	}
	return engines
}

// encodeArena encodes g with the scheme and returns the labeling's slab
// description; with id set, its labels laid out again in vertex order
// (relayout with a nil order), as stores of before the degree layout hold
// them — a slab whose ranks are not identifiers, which no engine builds over.
func encodeArena(t *testing.T, g *graph.Graph, s *FatThinScheme, id bool) (slab []byte, bitLens []int, order []int32) {
	t.Helper()
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if id {
		lab = relayout(t, lab, nil)
	}
	return arenaOf(t, lab)
}

// idRefused holds shard m of an id-ordered slab to the build refusal: with
// m.Count at most 1, the whole slab's engine is refused; otherwise the split
// refuses the slab, and an engine refuses the shard's labels laid out in id
// order with its foreign thin labels absent. Either way a label whose
// identifier is not its rank is named.
func idRefused(t *testing.T, slab []byte, bitLens []int, m ShardMap) {
	t.Helper()
	if m.Count > 1 {
		if _, err := ShardLabelArenas(slab, bitLens, nil, m.Count, ShardRange); !errors.Is(err, ErrBadLabel) {
			t.Fatalf("split of an id-ordered slab: err = %v, want ErrBadLabel", err)
		}
		slab, bitLens = stripForeign(t, slab, bitLens, nil, m)
		if slices.Index(bitLens, 0) < 0 {
			t.Fatal("the shard has no foreign thin label to leave absent")
		}
	}
	if _, err := NewQueryEngineFromPermutedArena(slab, bitLens, nil); !errors.Is(err, ErrBadLabel) || !strings.Contains(err.Error(), "not its rank") {
		t.Fatalf("id-ordered slab: err = %v, want ErrBadLabel naming a label whose identifier is not its rank", err)
	}
}

// stripForeign lays out shard m of a labeling the way ShardLabelArenas does,
// without its check that the slab's ranks are identifiers: owned and fat
// labels copied in the source's physical order, foreign thin labels absent.
func stripForeign(t testing.TB, slab []byte, bitLens []int, order []int32, m ShardMap) ([]byte, []int) {
	t.Helper()
	lo, hi := m.Range(len(bitLens))
	var physical []bitstr.String
	lens := make([]int, len(bitLens))
	walk := bitstr.NewSlabWalk(len(slab), bitLens, order)
	for walk.Next() {
		v, off := walk.Label()
		l := bitstr.SlabLabel(slab, off, bitLens[v])
		if (lo <= v && v < hi) || l.MustPeekUint(0, 1) == 1 {
			physical = append(physical, l)
			lens[v] = bitLens[v]
		}
	}
	if err := walk.Err(); err != nil {
		t.Fatal(err)
	}
	packed, _ := bitstr.PackSlab(physical)
	return packed, lens
}

func engineName(e *QueryEngine) string {
	if m, ok := e.Shard(); ok {
		return fmt.Sprintf("shard%dof%d", m.Index, m.Count)
	}
	return "unsharded"
}

// shapesGraph has, under threshold 8, four fat vertices (0..3: 0–1 and 0–2
// adjacent, 1–2, 1–3 and 2–3 not) and thin vertices whose neighbor lists hold
// 0, 1, 2, 3, 4, 5, 6 and 7 identifiers spread over the id range, so the
// exhaustive pair set below probes every list length with the target below
// the first entry, above the last, between entries and at every position.
// At n = 48 (w = 6) a header record holds lists of up to 10 identifiers, so
// all of these are record-held; under threshold 16 the four hubs turn thin
// with 9, 10, 10 and 11 identifiers: on the boundary, and one past it, in
// the slab.
func shapesGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 48
	b := graph.NewBuilder(n)
	add := func(u, v int) {
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(0, 1)
	add(0, 2)
	for hub := 0; hub < 4; hub++ {
		for j := 0; j < 9; j++ {
			add(hub, 4+(hub*5+j*3)%36) // hubs reach thin vertices 4..39 only
		}
	}
	// Vertices 40..46 get 1..7 extra thin neighbors stepping through 4..39;
	// 47 stays isolated (the empty list).
	for v := 40; v <= 46; v++ {
		for j := 0; j < v-39; j++ {
			add(v, 4+(v*7+j*5)%36)
		}
	}
	return b.Build()
}

// allOrderedPairs lists every (u,v) with 0 <= u,v < n, self pairs included.
func allOrderedPairs(n int) [][2]int {
	pairs := make([][2]int, 0, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	return pairs
}

// answerable keeps the pairs e resolves without error, in order.
func answerable(e *QueryEngine, pairs [][2]int) [][2]int {
	var ok [][2]int
	for _, p := range pairs {
		var t QueryTally
		if _, err := e.probe(p[0], p[1], &t); err == nil {
			ok = append(ok, p)
		}
	}
	return ok
}

func TestBlockKernelShapes(t *testing.T) {
	g := shapesGraph(t)
	lens := map[int]bool{}
	fat := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) >= 8 {
			fat++
		} else {
			lens[g.Degree(v)] = true
		}
	}
	for l := 0; l <= 7; l++ {
		if !lens[l] {
			t.Fatalf("shapes graph has no thin list of %d entries", l)
		}
	}
	if fat != 4 {
		t.Fatalf("shapes graph has %d fat vertices, want 4", fat)
	}
	all := allOrderedPairs(g.N())
	for _, cell := range []struct {
		thin ThinEdges
		id   bool // vertex-ordered input, as older stores hold it
		tau  int
	}{
		{ThinEdgesOnce, true, 8}, {ThinEdgesOnce, false, 8},
		{ThinEdgesBoth, true, 8}, {ThinEdgesBoth, false, 8},
		// No fat vertex; record-held and slab lists side by side in a block.
		{ThinEdgesBoth, true, 16}, {ThinEdgesBoth, false, 16},
	} {
		s := NewFixedThresholdScheme(cell.tau)
		s.SetThinEdges(cell.thin)
		cellName := func(engine string) string {
			name := "degree/" + engine
			if cell.id {
				name = "id/" + engine
			}
			if cell.thin == ThinEdgesBoth {
				name = "both/" + name
			}
			if cell.tau != 8 {
				name = fmt.Sprintf("tau%d/%s", cell.tau, name)
			}
			return name
		}
		if cell.id {
			// An id-ordered slab breaks the slab contract: every row of the
			// cell is a build refusal.
			slab, bitLens, _ := encodeArena(t, g, s, true)
			for _, m := range []ShardMap{{}, {Count: 1}, {Count: 2}, {Count: 2, Index: 1}, {Count: 3}, {Count: 3, Index: 1}, {Count: 3, Index: 2}} {
				name := "unsharded"
				if m.Count > 0 {
					name = fmt.Sprintf("shard%dof%d", m.Index, m.Count)
				}
				t.Run(cellName(name), func(t *testing.T) { idRefused(t, slab, bitLens, m) })
			}
			continue
		}
		for _, e := range enginesOver(t, g, s) {
			pairs := answerable(e, all)
			t.Run(cellName(engineName(e)), func(t *testing.T) {
				if _, sharded := e.Shard(); !sharded {
					// Both kinds of thin list where the cell promises them.
					inline, slab := 0, 0
					for _, m := range e.meta {
						switch {
						case m.fat() || m.cnt() == 0:
						case e.inline(m.cnt()):
							inline++
						default:
							slab++
						}
					}
					if inline == 0 || (cell.tau == 16) != (slab > 0) {
						t.Fatalf("%d record-held and %d slab thin lists", inline, slab)
					}
				}
				if _, sharded := e.Shard(); !sharded {
					// Unsharded, every pair answers — and must match the graph.
					got, err := e.AdjacentMany(all, nil)
					if err != nil {
						t.Fatal(err)
					}
					for i, p := range all {
						if got[i] != g.HasEdge(p[0], p[1]) {
							t.Fatalf("AdjacentMany%v = %v, graph says %v", p, got[i], !got[i])
						}
					}
				}
				// Every block phase: the same pairs cut at every offset mod 32.
				for skip := 0; skip < ProbeBlock; skip++ {
					pinSpan(t, e, pairs[skip:])
				}
			})
		}
	}
}

func TestBlockKernelLengths(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(900, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	e := enginesOver(t, g, NewPowerLawScheme(2.5))[0]
	for _, n := range []int{0, 1, 31, 32, 33, 95, 4096} {
		pairs := make([][2]int, n)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
			if i%7 == 0 { // a known edge, both orders over the run
				u := rng.Intn(g.N())
				if nb := g.Neighbors(u); len(nb) > 0 {
					pairs[i] = [2]int{int(nb[rng.Intn(len(nb))]), u}
				}
			}
			if i%13 == 0 && i > 0 {
				pairs[i] = pairs[i-1] // in-block duplicate
			}
		}
		pinSpan(t, e, pairs)
		batch, err := e.AdjacentMany(pairs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			want, err := e.Adjacent(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if want != g.HasEdge(p[0], p[1]) || batch[i] != want {
				t.Fatalf("n=%d pair %d %v: graph %v, Adjacent %v, AdjacentMany %v",
					n, i, p, g.HasEdge(p[0], p[1]), want, batch[i])
			}
		}
	}
}

// TestBlockKernelErrorAtEveryIndex plants one failing pair — out of range, or
// not resident on a shard — at every index of a three-block span and checks
// the kernel stops exactly there, with the answers before it delivered and
// the tally the scalar loop leaves.
func TestBlockKernelErrorAtEveryIndex(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(400, 2.5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, e := range enginesOver(t, g, NewPowerLawScheme(2.5)) {
		good := answerable(e, allOrderedPairs(g.N()))
		rng.Shuffle(len(good), func(i, j int) { good[i], good[j] = good[j], good[i] })
		span := good[:3*ProbeBlock]
		bad := [][2]int{{g.N(), 0}, {0, -1}}
		if _, sharded := e.Shard(); sharded {
			for _, p := range allOrderedPairs(g.N()) {
				var qt QueryTally
				if _, err := e.probe(p[0], p[1], &qt); errors.Is(err, ErrNotResident) {
					bad = append(bad, p)
					break
				}
			}
		}
		for _, b := range bad {
			for at := range span {
				pairs := append(append(append([][2]int{}, span[:at]...), b), span[at:]...)
				pinSpan(t, e, pairs)
				// Through the public batch call: the prefix survives, the
				// error names the pair.
				out, err := e.AdjacentMany(pairs, nil)
				if err == nil || len(out) != at {
					t.Fatalf("%s: bad pair %v at %d: AdjacentMany returned %d answers, err %v",
						engineName(e), b, at, len(out), err)
				}
				if !strings.HasPrefix(err.Error(), fmt.Sprintf("core: query (%d,%d): ", b[0], b[1])) {
					t.Fatalf("error %q does not name pair %v", err, b)
				}
			}
		}
	}
}

// TestBlockKernelBadLabelMidBlock: a slab with a label the kernel could not
// answer never reaches it — the build refuses a fat identifier outside a
// fat vector, in vertex order or in contract order — and over the same four
// vertices, built to the contract, a pair out of range at any index of a
// span stops the kernel there with the answers and the tally before it intact.
func TestBlockKernelBadLabelMidBlock(t *testing.T) {
	const w = 2
	thin := func(id uint64, nbrs ...uint64) bitstr.String {
		var b bitstr.Builder
		b.AppendUint(0, 1)
		b.AppendUint(id, w)
		for _, x := range nbrs {
			b.AppendUint(x, w)
		}
		return b.String()
	}
	fat := func(id uint64, vector ...uint64) bitstr.String {
		var b bitstr.Builder
		b.AppendUint(1, 1)
		b.AppendUint(id, w)
		for _, bit := range vector {
			b.AppendUint(bit, 1)
		}
		return b.String()
	}
	for _, tc := range []struct {
		name, named string
		labels      []bitstr.String
	}{
		{"vertex order", "label 0 at rank 0: ", []bitstr.String{thin(2, 0, 3), fat(0, 1), fat(1, 0, 0, 0), thin(3, 2)}},
		{"contract order", "label 1 at rank 1: ", []bitstr.String{fat(0, 1), fat(1, 0, 0, 0), thin(2, 0, 3), thin(3, 2)}},
	} {
		if _, err := NewQueryEngine(NewLabeling("", tc.labels, nil)); !errors.Is(err, ErrBadLabel) || !strings.Contains(err.Error(), tc.named) {
			t.Errorf("%s: engine build err = %v, want ErrBadLabel naming %q", tc.name, err, tc.named)
		}
	}
	e, err := NewQueryEngine(NewLabeling("", []bitstr.String{fat(0, 0, 1), fat(1, 1, 0), thin(2, 0, 3), thin(3, 2)}, nil))
	if err != nil {
		t.Fatal(err)
	}
	good := [][2]int{{0, 1}, {0, 3}, {3, 0}, {0, 0}, {1, 0}, {3, 1}, {2, 3}}
	for at := 0; at < 2*ProbeBlock+3; at++ {
		pairs := make([][2]int, 0, at+3)
		for i := 0; i < at; i++ {
			pairs = append(pairs, good[i%len(good)])
		}
		pairs = append(pairs, [2]int{1, 4}, good[0], good[1])
		pinSpan(t, e, pairs)
		var qt QueryTally
		done, err := e.AdjacentSpan(pairs, make([]bool, len(pairs)), &qt)
		if done != at || !errors.Is(err, ErrVertexRange) {
			t.Fatalf("bad pair at %d: answered %d, err %v", at, done, err)
		}
		if qt.queries != int64(at) { // a pair out of range is refused uncounted
			t.Fatalf("bad pair at %d: tallied %d queries, want %d", at, qt.queries, at)
		}
	}
}

// TestAdjacentManyZeroAlloc: every batch surface over the kernel — plain and
// sharded — runs a warmed 4096-pair batch without touching the heap.
func TestAdjacentManyZeroAlloc(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(3000, 2.5, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	engines := enginesOver(t, g, NewPowerLawScheme(2.5))
	plain, shard := engines[0], engines[len(engines)-1]
	rng := rand.New(rand.NewSource(2))
	random := make([][2]int, 4096)
	for i := range random {
		random[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
	}
	out := make([]bool, 0, len(random))
	for _, tc := range []struct {
		name  string
		e     *QueryEngine
		pairs [][2]int
	}{
		{"plain", plain, random},
		{"sharded", shard, answerable(shard, random)},
	} {
		run := func() error {
			_, err := tc.e.AdjacentMany(tc.pairs, out[:0])
			return err
		}
		if len(tc.pairs) < 1000 {
			t.Fatalf("%s: only %d pairs to drive", tc.name, len(tc.pairs))
		}
		if err := run(); err != nil { // warm-up
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per batch, want 0", tc.name, allocs)
		}
	}
}
