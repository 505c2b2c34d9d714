package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/labelstore"
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

// TestRunWritesStore: every scheme, the per-label ones included, is written
// as the one slab container the store readers accept.
func TestRunWritesStore(t *testing.T) {
	path := edgeListFixture(t)
	for _, scheme := range []string{"auto", "nbrlist", "adjmatrix", "forest", "onequery"} {
		storePath := filepath.Join(t.TempDir(), "labels.pllb")
		var out bytes.Buffer
		if err := run([]string{"-scheme", scheme, "-in", path, "-o", storePath}, strings.NewReader(""), &out); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		store, err := labelstore.Open(storePath)
		if err != nil {
			t.Fatalf("%s: written store does not load: %v", scheme, err)
		}
		if _, _, _, ok := store.ArenaLayout(); !ok || store.N() == 0 || len(store.Labels) != store.N() {
			t.Errorf("%s: loaded store has arena=%v, N=%d, %d labels", scheme, ok, store.N(), len(store.Labels))
		}
		store.Close()
	}
}
