package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/gen"
)

// TestQueryEngineEquivalence: the engine answers the same whether it adopts
// the pipeline's arena or the same labels handed over one by one and packed
// again in the labeling's rank order (bitstr.PackSlab), on every ordered pair
// of every test graph, for every scheme. The conformance matrix holds the pipeline's
// engine to the graph.
func TestQueryEngineEquivalence(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, s := range schemesUnderTest() {
			lab, err := s.Encode(g)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", name, s.Name(), err)
			}
			eng, err := NewQueryEngine(lab)
			if err != nil {
				t.Fatalf("%s/%s: engine: %v", name, s.Name(), err)
			}
			_, order, _ := lab.ArenaLayout()
			physical := make([]bitstr.String, lab.N())
			for r := range physical {
				v := r
				if order != nil {
					v = int(order[r])
				}
				if physical[r], err = lab.Label(v); err != nil {
					t.Fatal(err)
				}
			}
			slab, _ := bitstr.PackSlab(physical)
			peng, err := NewQueryEngineFromPermutedArena(slab, lab.BitLens(), order)
			if err != nil {
				t.Fatalf("%s/%s: engine from labels: %v", name, s.Name(), err)
			}
			for u := 0; u < g.N(); u++ {
				for v := u; v < g.N(); v++ {
					want, werr := eng.Adjacent(u, v)
					got, gerr := peng.Adjacent(u, v)
					if werr != nil || gerr != nil || got != want {
						t.Fatalf("%s/%s: from labels (%d,%d): %v/%v vs %v/%v",
							name, s.Name(), u, v, want, werr, got, gerr)
					}
				}
			}
		}
	}
}

// TestQueryEngineMalformedLabels: labels FatThinDecoder rejects at query
// time are rejected by the engine at build time, with the same sentinel, and
// so are labels that break the slab contract, which the decoder would meet as
// a fat identifier outside a vector. Each refusal names the label's vertex
// and rank.
func TestQueryEngineMalformedLabels(t *testing.T) {
	g := gen.Star(50)
	lab, err := NewFixedThresholdScheme(3).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]bitstr.String, lab.N())
	for v := range labels {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		labels[v] = l
	}
	w := bitstr.WidthFor(uint64(len(labels)))
	// The star's hub is vertex 0 and the leaves tie, so identifier v is
	// vertex v's and the labels meet the contract in vertex order.
	if _, err := NewQueryEngine(NewLabeling("", labels, nil)); err != nil {
		t.Fatalf("the star's labels in vertex order: %v", err)
	}

	corrupt := func(name, named string, labels []bitstr.String, mutate func([]bitstr.String)) {
		bad := append([]bitstr.String(nil), labels...)
		mutate(bad)
		if _, err := NewQueryEngine(NewLabeling("", bad, nil)); !errors.Is(err, ErrBadLabel) || !strings.Contains(err.Error(), named) {
			t.Errorf("%s: engine build err = %v, want ErrBadLabel naming %q", name, err, named)
		}
	}
	// Truncated header: too short for even the fat bit + id.
	corrupt("short-header", "label 3 at rank 3: ", labels, func(bad []bitstr.String) {
		var b bitstr.Builder
		b.AppendUint(1, w/2)
		bad[3] = b.String()
	})
	// Thin body not a multiple of the id width — the same corruption
	// FatThinDecoder reports at query time.
	var b bitstr.Builder
	b.AppendBit(false)
	b.AppendUint(5, w)
	b.AppendUint(1, w+1)
	oddThin := b.String()
	corrupt("ragged-thin-body", "label 5 at rank 5: thin body", labels, func(bad []bitstr.String) { bad[5] = oddThin })
	dec := NewFatThinDecoder(len(labels))
	if _, err := dec.Adjacent(oddThin, labels[0]); !errors.Is(err, ErrBadLabel) {
		t.Errorf("decoder on ragged thin body: err = %v, want ErrBadLabel", err)
	}

	// Four labels of id width 2 in contract order: fat 0 and 1, thin 2 and 3.
	// With fat 1's vector longer than fat 0's one bit, the decoder finds
	// identifier 1 outside fat 0's vector; with both one bit, outside either.
	fat := func(id uint64, vector ...uint64) bitstr.String {
		var b bitstr.Builder
		b.AppendBit(true)
		b.AppendUint(id, 2)
		for _, bit := range vector {
			b.AppendUint(bit, 1)
		}
		return b.String()
	}
	thin := func(id uint64, nbrs ...uint64) bitstr.String {
		var b bitstr.Builder
		b.AppendBit(false)
		b.AppendUint(id, 2)
		for _, x := range nbrs {
			b.AppendUint(x, 2)
		}
		return b.String()
	}
	small := []bitstr.String{fat(0, 0, 1), fat(1, 1, 0), thin(2, 0, 3), thin(3, 2)}
	if _, err := NewQueryEngine(NewLabeling("", small, nil)); err != nil {
		t.Fatalf("the four labels unbroken: %v", err)
	}
	corrupt("fat-vector-mismatch", "label 1 at rank 1: fat body of 3 bits, the first has 1", small, func(bad []bitstr.String) {
		bad[0], bad[1] = fat(0, 1), fat(1, 0, 0, 0)
	})
	if _, err := NewFatThinDecoder(4).Adjacent(fat(0, 1), fat(1, 0, 0, 0)); !errors.Is(err, ErrBadLabel) {
		t.Errorf("decoder on a fat identifier outside the vector: err = %v, want ErrBadLabel", err)
	}
	corrupt("fat-vector-short", "label 0 at rank 0: fat body of 1 bits, not the fat count 2", small, func(bad []bitstr.String) {
		bad[0], bad[1] = fat(0, 1), fat(1, 1)
	})
	corrupt("fat-vector-long", "label 0 at rank 0: fat body of 3 bits, not the fat count 2", small, func(bad []bitstr.String) {
		bad[0], bad[1] = fat(0, 0, 1, 0), fat(1, 1, 0, 0)
	})
	corrupt("fat-after-thin", "label 3 at rank 3: fat after a thin label", small, func(bad []bitstr.String) {
		bad[3] = fat(3, 0, 0)
	})
}

func TestQueryEngineVertexRange(t *testing.T) {
	lab, err := NewFixedThresholdScheme(2).Encode(gen.Path(10))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewQueryEngine(lab)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int{{-1, 0}, {0, -1}, {10, 0}, {0, 10}} {
		if _, err := eng.Adjacent(p[0], p[1]); !errors.Is(err, ErrVertexRange) {
			t.Errorf("Adjacent(%d,%d) err = %v, want ErrVertexRange", p[0], p[1], err)
		}
	}
	if _, err := eng.AdjacentMany([][2]int{{0, 1}, {0, 99}}, nil); !errors.Is(err, ErrVertexRange) {
		t.Errorf("AdjacentMany err = %v, want ErrVertexRange", err)
	}
	if _, err := eng.AdjacentMany(make([][2]int, 64), nil); err != nil {
		// all-zero pairs are valid (0,0) queries
		t.Errorf("AdjacentMany of (0,0) pairs: err = %v", err)
	}
}

// TestQueryEngineBatchDrivers checks the batch path against the single-query
// path, including result ordering and out-slice reuse, and exercises
// concurrent batches over one engine (run with -race).
func TestQueryEngineBatchDrivers(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(1200, 2.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewQueryEngine(lab)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]int, 5000)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
	}
	want := make([]bool, len(pairs))
	for i, p := range pairs {
		ok, err := eng.Adjacent(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ok
	}
	batch, err := eng.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if batch[i] != want[i] {
			t.Fatalf("AdjacentMany[%d] = %v, want %v", i, batch[i], want[i])
		}
	}
	// Concurrent batches over the same shared engine, each from its own
	// offset into the pairs.
	var wg sync.WaitGroup
	for job := 0; job < 4; job++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			out, err := eng.AdjacentMany(pairs[lo:], make([]bool, 0, len(pairs)))
			if err != nil {
				t.Errorf("batch from %d: %v", lo, err)
				return
			}
			for i := range out {
				if out[i] != want[lo+i] {
					t.Errorf("batch from %d: [%d] = %v, want %v", lo, i, out[i], want[lo+i])
					return
				}
			}
		}(job * 1000)
	}
	wg.Wait()
	// A reused out slice keeps its earlier results and its backing array.
	out := make([]bool, 1, 1+len(pairs))
	out[0] = true
	got, err := eng.AdjacentMany(pairs, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(pairs) || !got[0] || &got[0] != &out[0] {
		t.Fatalf("reused out: len %d (want %d), kept result %v, same array %v", len(got), 1+len(pairs), got[0], &got[0] == &out[0])
	}
}

func TestStatsMemoized(t *testing.T) {
	lab, err := NewFixedThresholdScheme(2).Encode(gen.Star(40))
	if err != nil {
		t.Fatal(err)
	}
	first := lab.Stats()
	for i := 0; i < 3; i++ {
		if got := lab.Stats(); got != first {
			t.Fatalf("Stats call %d = %+v, want %+v", i, got, first)
		}
	}
	if first.Total == 0 || first.Max < first.Min {
		t.Fatalf("implausible stats: %+v", first)
	}
}
