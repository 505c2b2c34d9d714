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
// 1 <= cnt and cnt·w <= 64. TestInlineBoundary hand-packs labelings with lists
// on and around that boundary for every id width a test can build cheaply and
// pins the kernel, the scalar probe and FatThinDecoder to one another on
// them: answers, errors and every QueryTally field, over an id-ordered slab, a
// degree-ordered one and a 3-shard split.

// inlineShape is one thin list of the boundary test: its length, and whether
// it is stored in descending order — unsorted, which construction accepts.
type inlineShape struct {
	name       string
	cnt        int
	descending bool
}

// inlineShapes lists, for id width w, an empty list, one id, one id either
// side of the longest record-held list, that list sorted and unsorted, and a
// long list.
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

// inlineEngines builds engines over labels: an id-ordered slab, a
// degree-ordered one (longest list first), and, when n allows, the three
// shards of a range split of the degree-ordered slab.
func inlineEngines(t *testing.T, labels []bitstr.String) []*QueryEngine {
	t.Helper()
	order := make([]int32, len(labels))
	for r := range order {
		order[r] = int32(r)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return labels[b].Len() - labels[a].Len() })
	physical := make([]bitstr.String, len(labels))
	for r, v := range order {
		physical[r] = labels[v]
	}
	degSlab, _ := bitstr.PackSlab(physical)
	idSlab, bitLens := bitstr.PackSlab(labels)

	build := func(slab []byte, bitLens []int, order []int32) *QueryEngine {
		e, err := NewQueryEngineFromPermutedArena(slab, bitLens, order)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	engines := []*QueryEngine{build(idSlab, bitLens, nil), build(degSlab, bitLens, order)}
	if len(labels) >= 3 {
		arenas, err := ShardLabelArenas(degSlab, bitLens, order, 3, ShardRange)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range arenas {
			e := build(a.Slab, a.BitLens, order)
			if err := e.SetShard(ShardMap{Count: 3, Index: i, Fn: ShardRange}); err != nil {
				t.Fatal(err)
			}
			engines = append(engines, e)
		}
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
		// Small widths have fewer vertices than shapes: one labeling per
		// group of shapes that fits beside the fat vertex.
		for lo := 0; lo < len(shapes); lo += n - 1 {
			group := shapes[lo:min(lo+n-1, len(shapes))]
			labels, lists := inlineLabels(w, group)
			pairs := inlinePairs(n, lists)
			dec := NewFatThinDecoder(n)
			hidden := false // the unsorted list hid a listed id from the search
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
						// searched a list of 1..64/w ids.
						list := lists[max(p[0], p[1])]
						held := tally.thin == 1 && len(list) >= 1 && len(list)*w <= 64
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
			for _, sh := range group {
				if sh.descending && !hidden {
					t.Errorf("w=%d: no listed id of the unsorted list was missed by the search; the row pins nothing", w)
				}
			}
		}
	}
}
