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
	"repro/internal/schemes/forest"
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
// the library builds for that scheme, byte for byte. The fat/thin and
// distance schemes write degree order; the baselines have no permutation
// and stay id-ordered. Every store loads through the one reader.
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
		order bool // degree-ordered
		lib   func() (*labelstore.File, error)
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
		{[]string{"-scheme", "forest"}, false, func() (*labelstore.File, error) { return slabStore(forest.Scheme{}.Encode(g)) }},
		{[]string{"-scheme", "onequery"}, false, func() (*labelstore.File, error) { return slabStore(oneQueryAdapter{}.Encode(g)) }},
		{[]string{"-scheme", "nbrlist"}, false, func() (*labelstore.File, error) { return slabStore(baseline.NeighborList{}.Encode(g)) }},
		{[]string{"-scheme", "adjmatrix"}, false, func() (*labelstore.File, error) { return slabStore(baseline.AdjMatrix{}.Encode(g)) }},
	} {
		storePath := filepath.Join(t.TempDir(), "labels.pllb")
		var out bytes.Buffer
		if err := run(append(tc.args, "-in", path, "-o", storePath), strings.NewReader(""), &out); err != nil {
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
		store.Close()
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
