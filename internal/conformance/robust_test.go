package conformance

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
	"repro/internal/schemes/onequery"
	"repro/internal/schemes/routing"
	"repro/internal/schemes/tree"
)

// randomLabel produces an arbitrary bit string of up to maxBits bits.
func randomLabel(rng *rand.Rand, maxBits int) bitstr.String {
	n := rng.Intn(maxBits + 1)
	var b bitstr.Builder
	for i := 0; i < n; i += 64 {
		b.AppendUint(rng.Uint64(), min(n-i, 64))
	}
	return b.String()
}

// noPanic fails t if fn panics; the robust rows' contract is only that.
func noPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decoder panicked: %v", name, r)
		}
	}()
	fn()
}

func fuzzAdjacency(t *testing.T, name string, dec core.AdjacencyDecoder) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	noPanic(t, name, func() {
		for i := 0; i < 3000; i++ {
			_, _ = dec.Adjacent(randomLabel(rng, 200), randomLabel(rng, 200))
		}
	})
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

// TestOneQueryDecoderRobust feeds Section 6's decoder random first, second
// and fetched labels. The fetched one comes from whichever peer owns the
// pair, the least trusted of the three; the decoder must also only ever ask
// for a peer that exists.
func TestOneQueryDecoderRobust(t *testing.T) {
	for _, n := range []int{1, 2, 20} {
		enc, err := (onequery.Scheme{Seed: 3}).Encode(gen.Path(n))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		noPanic(t, "onequery", func() {
			for i := 0; i < 3000; i++ {
				_, _ = enc.Dec.Adjacent(randomLabel(rng, 200), randomLabel(rng, 200), func(v int) (bitstr.String, error) {
					if v < 0 || v >= n {
						t.Fatalf("n=%d: fetch asked for peer %d", n, v)
					}
					return randomLabel(rng, 200), nil
				})
			}
		})
	}
}

func TestRoutingDecoderRobust(t *testing.T) {
	lab, err := (routing.Scheme{K: 2}).Encode(gen.Path(20))
	if err != nil {
		t.Fatal(err)
	}
	dec := lab.Decoder()
	rng := rand.New(rand.NewSource(11))
	noPanic(t, "routing", func() {
		for i := 0; i < 3000; i++ {
			a, b := randomLabel(rng, 200), randomLabel(rng, 200)
			_, _ = dec.TreeDist(a, b)
			_, _ = dec.NextHop(a, b)
		}
	})
}

// TestDistanceDecodersRobust fuzzes the Dist entry points of Lemma 7's
// decoder and of the exact-vector baseline. The served engines validate every
// label at construction instead, which core's FuzzDistEngineHeaders fuzzes.
func TestDistanceDecodersRobust(t *testing.T) {
	g := gen.Path(30)
	arena, err := (distance.Scheme{Alpha: 2.5, F: 3}).EncodeArena(g, 0, core.LayoutDegree)
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
	noPanic(t, "distance", func() {
		for i := 0; i < 2000; i++ {
			a, b := randomLabel(rng, 300), randomLabel(rng, 300)
			_, _ = dec.Dist(a, b)
			_, _ = exact.DistLabels(a, b)
		}
	})
}
