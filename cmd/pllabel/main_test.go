package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labelstore"
	"repro/internal/schemes/baseline"
	"repro/internal/schemes/distance"
)

func edgeListFixture(t *testing.T) string {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(400, 2.5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.el")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllSchemes(t *testing.T) {
	path := edgeListFixture(t)
	for _, scheme := range []string{"powerlaw", "sparse", "auto", "forest", "onequery", "nbrlist", "adjmatrix"} {
		var out bytes.Buffer
		err := run([]string{"-scheme", scheme, "-in", path}, strings.NewReader(""), &out)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !strings.Contains(out.String(), "verify: ok") {
			t.Errorf("%s: missing verification line in %q", scheme, out.String())
		}
	}
}

func TestRunFixedThreshold(t *testing.T) {
	path := edgeListFixture(t)
	var out bytes.Buffer
	if err := run([]string{"-scheme", "fixed", "-tau", "5", "-in", path}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scheme", "fixed", "-tau", "0", "-in", path}, strings.NewReader(""), &out); err == nil {
		t.Error("tau=0 accepted")
	}
}

func TestRunFitFlag(t *testing.T) {
	path := edgeListFixture(t)
	var out bytes.Buffer
	if err := run([]string{"-scheme", "auto", "-fit", "-in", path}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fit: alpha=") {
		t.Errorf("missing fit line in %q", out.String())
	}
}

func TestRunStdin(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scheme", "sparse"}, strings.NewReader("0 1\n1 2\n"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=3") {
		t.Errorf("stdin graph not parsed: %q", out.String())
	}
}

// TestRunUnknownScheme: "compressed" is a library scheme (E8, E15, E16, E18),
// not one pllabel writes — no reader serves its layout.
func TestRunUnknownScheme(t *testing.T) {
	for _, scheme := range []string{"nope", "compressed"} {
		var out bytes.Buffer
		err := run([]string{"-scheme", scheme}, strings.NewReader("0 1\n"), &out)
		if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("-scheme %s: err = %v, want an unknown-scheme error", scheme, err)
		}
	}
}

// TestRunWritesStore is one table keyed by scheme: pllabel writes the store
// the library builds for that scheme, byte for byte, and the written file
// opens — its engine comes from the one opener and answers as the graph
// says. The fat/thin and distance schemes write degree order; nbrlist has no
// permutation and stays id-ordered. A scheme no engine serves (forest,
// onequery, adjmatrix) is refused and leaves no file behind.
func TestRunWritesStore(t *testing.T) {
	path := edgeListFixture(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]string{"n": strconv.Itoa(g.N())}
	slabStore := func(lab *core.Labeling, err error) (*labelstore.File, error) {
		if err != nil {
			return nil, err
		}
		slab, order, _ := lab.ArenaLayout()
		return labelstore.NewPermutedArenaFile(lab.Scheme(), params, slab, lab.BitLens(), order)
	}
	degree := func(s *core.FatThinScheme) (*labelstore.File, error) {
		return slabStore(s.Encode(g))
	}
	distStore := func(name string, a *core.DistArena, err error) (*labelstore.File, error) {
		if err != nil {
			return nil, err
		}
		return labelstore.NewDistArenaFile(name, params, a)
	}
	for _, tc := range []struct {
		args  []string
		order bool                             // degree-ordered
		lib   func() (*labelstore.File, error) // nil: -o is refused
	}{
		{[]string{"-scheme", "powerlaw"}, true, func() (*labelstore.File, error) { return degree(core.NewPowerLawScheme(2.5)) }},
		{[]string{"-scheme", "sparse"}, true, func() (*labelstore.File, error) { return degree(core.NewSparseSchemeAuto()) }},
		{[]string{"-scheme", "auto"}, true, func() (*labelstore.File, error) { return degree(core.NewPowerLawSchemeAuto()) }},
		{[]string{"-scheme", "fixed", "-tau", "5"}, true, func() (*labelstore.File, error) { return degree(core.NewFixedThresholdScheme(5)) }},
		{[]string{"-scheme", "dist-pll"}, true, func() (*labelstore.File, error) {
			s := distance.PLLScheme{}
			a, err := s.EncodeArena(g, 0, core.LayoutDegree)
			return distStore(s.Name(), a, err)
		}},
		{[]string{"-scheme", "dist-bounded"}, true, func() (*labelstore.File, error) {
			s := distance.Scheme{Alpha: 2.5, F: 2}
			a, err := s.EncodeArena(g, 0, core.LayoutDegree)
			return distStore(s.Name(), a, err)
		}},
		{[]string{"-scheme", "nbrlist"}, false, func() (*labelstore.File, error) { return slabStore(baseline.NeighborList{}.Encode(g)) }},
		{[]string{"-scheme", "forest"}, false, nil},
		{[]string{"-scheme", "onequery"}, false, nil},
		{[]string{"-scheme", "adjmatrix"}, false, nil},
	} {
		storePath := filepath.Join(t.TempDir(), "labels.pllb")
		var out bytes.Buffer
		err := run(append(tc.args, "-in", path, "-o", storePath), strings.NewReader(""), &out)
		if tc.lib == nil {
			if err == nil || !strings.Contains(err.Error(), "not a fat/thin layout") {
				t.Errorf("%v -o: err = %v, want a refusal", tc.args, err)
			}
			if _, serr := os.Stat(storePath); serr == nil {
				t.Errorf("%v -o: refused, yet wrote %s", tc.args, storePath)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		wantLine := "layout: id-ordered"
		if tc.order {
			wantLine = "layout: degree-ordered"
		}
		if !strings.Contains(out.String(), wantLine) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, wantLine, out.String())
		}
		got, err := os.ReadFile(storePath)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := tc.lib()
		if err != nil {
			t.Fatalf("%v: library store: %v", tc.args, err)
		}
		var want bytes.Buffer
		if err := labelstore.Write(&want, lib); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%v: written store (%d bytes) differs from the library's (%d bytes)", tc.args, len(got), want.Len())
		}
		store, err := labelstore.Open(storePath)
		if err != nil {
			t.Fatalf("%v: written store does not load: %v", tc.args, err)
		}
		if _, _, order, ok := store.ArenaLayout(); !ok || (order != nil) != tc.order || store.N() != g.N() {
			t.Errorf("%v: loaded store has arena=%v, order=%v, N=%d", tc.args, ok, order != nil, store.N())
		}
		checkEngines(t, tc.args, store.File, g)
		store.Close()
	}
}

// checkEngines builds a written store's engine through the one opener and
// checks a few pairs against g — at a spread of vertices, the next vertex and
// the first neighbour — by adjacency or distance 1, on the store's own plane.
func checkEngines(t *testing.T, args []string, store *labelstore.File, g *graph.Graph) {
	t.Helper()
	eng, deng, err := store.Engines()
	if err != nil {
		t.Fatalf("%v: written store builds no engine: %v", args, err)
	}
	for u := 0; u < g.N(); u += 37 {
		vs := []int{(u + 1) % g.N()}
		if nbrs := g.Neighbors(u); len(nbrs) > 0 {
			vs = append(vs, int(nbrs[0]))
		}
		for _, v := range vs {
			if eng != nil {
				if got, err := eng.Adjacent(u, v); err != nil || got != g.HasEdge(u, v) {
					t.Errorf("%v: Adjacent(%d,%d) = %v, %v; graph says %v", args, u, v, got, err, g.HasEdge(u, v))
				}
				continue
			}
			if got, err := deng.Dist(u, v); err != nil || (got == 1) != g.HasEdge(u, v) {
				t.Errorf("%v: Dist(%d,%d) = %d, %v; graph says edge=%v", args, u, v, got, err, g.HasEdge(u, v))
			}
		}
	}
}

// TestRunShardsRefusesNonFatThin: -shards splits only the fat/thin
// threshold schemes' labelings. The baselines and the per-label schemes are
// refused by scheme name — nbrlist included, although its labels share the
// fat/thin layout — and a powerlaw labeling still splits.
func TestRunShardsRefusesNonFatThin(t *testing.T) {
	path := edgeListFixture(t)
	for _, tc := range []struct {
		scheme  string
		refused bool
	}{
		{"forest", true},
		{"onequery", true},
		{"nbrlist", true},
		{"adjmatrix", true},
		{"powerlaw", false},
	} {
		storePath := filepath.Join(t.TempDir(), "labels.pllb")
		var out bytes.Buffer
		err := run([]string{"-scheme", tc.scheme, "-in", path, "-shards", "2", "-o", storePath}, strings.NewReader(""), &out)
		if tc.refused {
			if err == nil || !strings.Contains(err.Error(), "sharding needs the fat/thin pipeline") {
				t.Errorf("-scheme %s -shards 2: err = %v, want a refusal", tc.scheme, err)
			}
			if _, serr := os.Stat(storePath + ".shard0"); serr == nil {
				t.Errorf("-scheme %s -shards 2: refused, yet wrote a shard file", tc.scheme)
			}
			continue
		}
		if err != nil {
			t.Fatalf("-scheme %s -shards 2: %v", tc.scheme, err)
		}
		for _, shard := range []string{".shard0", ".shard1"} {
			if _, err := os.Stat(storePath + shard); err != nil {
				t.Errorf("-scheme %s -shards 2: %v", tc.scheme, err)
			}
		}
	}
}
