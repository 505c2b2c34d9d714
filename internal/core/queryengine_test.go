package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/gen"
)

// TestQueryEngineEquivalence: the engine answers the same whether it adopts
// the pipeline's arena or the same labels handed over one by one (NewLabeling
// packs them), on every ordered pair of every test graph, for every scheme.
// The conformance matrix holds the pipeline's engine to the graph.
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
			labels := make([]bitstr.String, lab.N())
			for v := range labels {
				if labels[v], err = lab.Label(v); err != nil {
					t.Fatal(err)
				}
			}
			peng, err := NewQueryEngine(NewLabeling("", labels, nil))
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

// TestQueryEngineSampledLargeGraph checks engine-vs-decoder agreement on
// sampled pairs of a graph above the exhaustive-verification limit.
func TestQueryEngineSampledLargeGraph(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(4000, 2.5, 2, 7)
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
	rng := rand.New(rand.NewSource(11))
	check := func(u, v int) {
		want, werr := lab.Adjacent(u, v)
		got, gerr := eng.Adjacent(u, v)
		if werr != nil || gerr != nil || got != want {
			t.Fatalf("(%d,%d): decoder=%v/%v engine=%v/%v", u, v, want, werr, got, gerr)
		}
	}
	g.Edges(func(u, v int) { check(u, v); check(v, u) })
	for i := 0; i < 20000; i++ {
		check(rng.Intn(g.N()), rng.Intn(g.N()))
	}
}

// TestQueryEngineMalformedLabels: labels FatThinDecoder rejects at query
// time are rejected by the engine at build time, with the same sentinel.
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

	corrupt := func(name string, mutate func([]bitstr.String)) {
		bad := append([]bitstr.String(nil), labels...)
		mutate(bad)
		if _, err := NewQueryEngine(NewLabeling("", bad, nil)); !errors.Is(err, ErrBadLabel) {
			t.Errorf("%s: engine build err = %v, want ErrBadLabel", name, err)
		}
	}
	// Truncated header: too short for even the fat bit + id.
	corrupt("short-header", func(bad []bitstr.String) {
		var b bitstr.Builder
		b.AppendUint(1, w/2)
		bad[3] = b.String()
	})
	// Thin body not a multiple of the id width — the same corruption
	// FatThinDecoder reports at query time.
	var b bitstr.Builder
	b.AppendBit(false)
	b.AppendUint(7, w)
	b.AppendUint(1, w+1)
	oddThin := b.String()
	corrupt("ragged-thin-body", func(bad []bitstr.String) { bad[5] = oddThin })
	dec := NewFatThinDecoder(len(labels))
	if _, err := dec.Adjacent(oddThin, labels[0]); !errors.Is(err, ErrBadLabel) {
		t.Errorf("decoder on ragged thin body: err = %v, want ErrBadLabel", err)
	}
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
