package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestGenerateModels(t *testing.T) {
	cases := []struct {
		model string
		n     int
	}{
		{"chunglu", 500},
		{"ba", 500},
		{"config", 500},
		{"er", 200},
		{"waxman", 150},
		{"tree", 300},
		{"lognormal", 400},
		{"pl", 4096},
	}
	for _, tc := range cases {
		g, _, err := generate(tc.model, tc.n, 2.5, 2, 3, 0.05, 0.4, 0.15, 1.0, 1.1, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.model, err)
		}
		if g.N() != tc.n {
			t.Errorf("%s: n=%d, want %d", tc.model, g.N(), tc.n)
		}
	}
	if _, _, err := generate("hierarchical", 4096, 2.5, 2, 3, 0.05, 0.4, 0.15, 1.0, 1.1, 1); err != nil {
		t.Fatalf("hierarchical: %v", err)
	}
	if _, _, err := generate("nope", 10, 2.5, 2, 3, 0.05, 0.4, 0.15, 1.0, 1.1, 1); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRunWritesEdgeList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model", "er", "-n", "50", "-p", "0.1", "-seed", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 50 {
		t.Errorf("round-tripped n=%d", g.N())
	}
}

// TestRunWorkerInvariance asserts the flagship determinism contract at the
// CLI level: the emitted bytes are identical at every GOMAXPROCS, which sets
// the sampling, CSR-build and writing worker counts, for a fixed seed.
func TestRunWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	args := func(model string) []string {
		return []string{"-model", model, "-n", "400", "-p", "0.02", "-seed", "7"}
	}
	for _, model := range []string{"chunglu", "er", "config"} {
		runtime.GOMAXPROCS(1)
		var ref bytes.Buffer
		if err := run(args(model), &ref); err != nil {
			t.Fatalf("%s GOMAXPROCS 1: %v", model, err)
		}
		for _, procs := range []int{2, 7} {
			runtime.GOMAXPROCS(procs)
			var out bytes.Buffer
			if err := run(args(model), &out); err != nil {
				t.Fatalf("%s GOMAXPROCS %d: %v", model, procs, err)
			}
			if !bytes.Equal(ref.Bytes(), out.Bytes()) {
				t.Errorf("%s: output differs between GOMAXPROCS 1 and %d", model, procs)
			}
		}
	}
}

// TestRunOutputFile exercises the -o path: the file must be written,
// closed exactly once, and parse back to the same graph as stdout output.
func TestRunOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.el")
	if err := run([]string{"-model", "chunglu", "-n", "300", "-seed", "3", "-o", path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := run([]string{"-model", "chunglu", "-n", "300", "-seed", "3"}, &direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, direct.Bytes()) {
		t.Error("-o file content differs from stdout content")
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 300 {
		t.Errorf("n=%d, want 300", g.N())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model", "bogus"}, &out); err == nil {
		t.Error("bogus model accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}
