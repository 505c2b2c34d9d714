// Package robustness fuzz-tests every decoder in the repository against
// arbitrary bit strings: a decoder handed corrupt or adversarial labels
// must return an error or a boolean — never panic and never read out of
// bounds. This matters for the paper's deployment model, where labels
// arrive over a network from untrusted peers.
package robustness

import (
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/baseline"
	"repro/internal/schemes/distance"
	"repro/internal/schemes/dynamic"
	"repro/internal/schemes/forest"
	"repro/internal/schemes/routing"
	"repro/internal/schemes/tree"
)

// randomLabel produces an arbitrary bit string of up to maxBits bits.
func randomLabel(rng *rand.Rand, maxBits int) bitstr.String {
	n := rng.Intn(maxBits + 1)
	var b bitstr.Builder
	for i := 0; i < n; i += 64 {
		w := n - i
		if w > 64 {
			w = 64
		}
		b.AppendUint(rng.Uint64(), w)
	}
	return b.String()
}

func fuzzAdjacency(t *testing.T, name string, dec core.AdjacencyDecoder) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decoder panicked: %v", name, r)
		}
	}()
	for i := 0; i < 3000; i++ {
		a := randomLabel(rng, 200)
		b := randomLabel(rng, 200)
		// Result is irrelevant; the contract is "no panic".
		_, _ = dec.Adjacent(a, b)
	}
}

func TestFatThinDecoderRobust(t *testing.T) {
	fuzzAdjacency(t, "fatthin", core.NewFatThinDecoder(100))
	fuzzAdjacency(t, "fatthin-n1", core.NewFatThinDecoder(1))
	fuzzAdjacency(t, "fatthin-n0", core.NewFatThinDecoder(0))
}

func TestCompressedDecoderRobust(t *testing.T) {
	fuzzAdjacency(t, "compressed", core.NewCompressedDecoder(100))
	fuzzAdjacency(t, "compressed-n1", core.NewCompressedDecoder(1))
}

func TestTreeDecoderRobust(t *testing.T) {
	fuzzAdjacency(t, "tree", tree.NewDecoder(64))
	fuzzAdjacency(t, "tree-n1", tree.NewDecoder(1))
}

func TestForestDecoderRobust(t *testing.T) {
	fuzzAdjacency(t, "forest", forest.NewDecoder(64))
	fuzzAdjacency(t, "forest-n1", forest.NewDecoder(1))
}

func TestAdjMatrixDecoderRobust(t *testing.T) {
	fuzzAdjacency(t, "adjmatrix", baseline.NewAdjMatrixDecoder(64))
}

func TestDynamicDecoderRobust(t *testing.T) {
	fuzzAdjacency(t, "dynamic", &dynamic.Decoder{W: 7})
	fuzzAdjacency(t, "dynamic-w0", &dynamic.Decoder{W: 0})
}

func TestRoutingDecoderRobust(t *testing.T) {
	g := gen.Path(20)
	lab, err := (routing.Scheme{K: 2}).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	dec := lab.Decoder()
	rng := rand.New(rand.NewSource(11))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("routing decoder panicked: %v", r)
		}
	}()
	for i := 0; i < 3000; i++ {
		a := randomLabel(rng, 200)
		b := randomLabel(rng, 200)
		_, _ = dec.TreeDist(a, b)
		_, _ = dec.NextHop(a, b)
	}
}

func TestDistanceDecodersRobust(t *testing.T) {
	// Distance decoders come from encodes; fuzz their Dist entry points. The
	// served engines validate every label at construction instead, which
	// core's FuzzDistEngineHeaders fuzzes.
	g := gen.Path(30)
	arena, err := (distance.Scheme{Alpha: 2.5, F: 3}).EncodeArena(g, 0, core.LayoutID)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := distance.NewDecoder(arena.N(), arena.Params)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := (distance.ExactScheme{}).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("distance decoder panicked: %v", r)
		}
	}()
	for i := 0; i < 2000; i++ {
		a := randomLabel(rng, 300)
		b := randomLabel(rng, 300)
		_, _ = dec.Dist(a, b)
		_, _ = exactDist(exact, a, b)
	}
}

// exactDist reaches the decoder through a pair of stored labels replaced by
// fuzz inputs (the decoder is only exposed via its labeling).
func exactDist(l *distance.ExactLabeling, a, b bitstr.String) (int, error) {
	return l.DistLabels(a, b)
}
