package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adjserve"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labelstore"
)

// storeFixture labels a small graph and writes a label store, returning the
// path and the graph for truth checks.
func storeFixture(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	g := gen.ErdosRenyi(40, 0.12, 9)
	lab, err := core.NewSparseSchemeAuto().Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]bitstr.String, g.N())
	for v := range labels {
		labels[v], err = lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "l.pllb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slab, bitLens := bitstr.PackSlab(labels)
	store, err := labelstore.NewArenaFile(lab.Scheme(), map[string]string{"n": strconv.Itoa(g.N())}, slab, bitLens)
	if err != nil {
		t.Fatal(err)
	}
	if err := labelstore.Write(f, store); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestQueryAnswersMatchGraph(t *testing.T) {
	path, g := storeFixture(t)
	var in bytes.Buffer
	type q struct{ u, v int }
	var qs []q
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			in.WriteString(strconv.Itoa(u) + " " + strconv.Itoa(v) + "\n")
			qs = append(qs, q{u, v})
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-labels", path}, &in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(qs) {
		t.Fatalf("%d answers for %d queries", len(lines), len(qs))
	}
	for i, line := range lines {
		want := strconv.FormatBool(g.HasEdge(qs[i].u, qs[i].v))
		if !strings.HasSuffix(line, want) {
			t.Errorf("query %v: got %q, want suffix %v", qs[i], line, want)
		}
	}
}

func TestQueryStatsFlag(t *testing.T) {
	path, _ := storeFixture(t)
	var out bytes.Buffer
	if err := run([]string{"-labels", path, "-stats"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=40") {
		t.Errorf("stats output %q", out.String())
	}
}

func TestQueryBadInputLines(t *testing.T) {
	path, _ := storeFixture(t)
	in := strings.NewReader("garbage\n1\n0 999\n# comment\n\n0 1\n")
	var out bytes.Buffer
	if err := run([]string{"-labels", path}, in, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Count(s, "error:") != 3 {
		t.Errorf("want 3 error lines, got output:\n%s", s)
	}
	if !strings.Contains(s, "0 1 ") {
		t.Errorf("valid query not answered:\n%s", s)
	}
}

func TestQueryMissingFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Error("missing -labels accepted")
	}
	if err := run([]string{"-labels", "/nonexistent/file"}, strings.NewReader(""), &out); err == nil {
		t.Error("nonexistent store accepted")
	}
}

func TestDecoderFor(t *testing.T) {
	for _, name := range []string{"sparse(auto)", "powerlaw(α=2.5)", "fatthin(τ=3)", "nbrlist", "adjmatrix"} {
		if _, err := decoderFor(name, 10); err != nil {
			t.Errorf("decoderFor(%q): %v", name, err)
		}
	}
	for _, name := range []string{"mystery", "compressed+powerlaw(auto)"} {
		if _, err := decoderFor(name, 10); err == nil {
			t.Errorf("decoderFor(%q) accepted", name)
		}
	}
}

// TestQueryRemoteMode: -remote against a loopback adjserve server over the
// same labeling must produce byte-identical output to the local -labels
// mode, in both streaming and batch form (including interleaved parse
// errors, which never reach the network).
func TestQueryRemoteMode(t *testing.T) {
	path, _ := storeFixture(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store, err := labelstore.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewQueryEngineFromLabels(store.Labels)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := adjserve.NewServer(eng, 0)
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	input := "garbage\n0 1\n2 3\n0 999\n4 5\n# c\n6 7\n"
	var want bytes.Buffer
	if err := run([]string{"-labels", path}, strings.NewReader(input), &want); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-batch"}} {
		var got bytes.Buffer
		if err := run(append([]string{"-remote", addr}, extra...),
			strings.NewReader(input), &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("remote%v output differs\nremote:\n%s\nlocal:\n%s",
				extra, got.String(), want.String())
		}
	}
	// Flag validation: the two sources are mutually exclusive, and -stats
	// needs the store file.
	var out bytes.Buffer
	if err := run([]string{"-labels", path, "-remote", addr}, strings.NewReader(""), &out); err == nil {
		t.Error("-labels with -remote accepted")
	}
	if err := run([]string{"-remote", addr, "-stats"}, strings.NewReader(""), &out); err == nil {
		t.Error("-remote with -stats accepted")
	}
}

// TestQueryBatchMode: -batch must produce exactly the streaming output
// (same lines, same order, parse errors interleaved), for both serial and
// sharded-parallel batch answering.
func TestQueryBatchMode(t *testing.T) {
	path, _ := storeFixture(t)
	input := "garbage\n0 1\n2 3\n0 999\n4 5\n# c\n6 7\n"
	var want bytes.Buffer
	if err := run([]string{"-labels", path}, strings.NewReader(input), &want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4", "0"} {
		var got bytes.Buffer
		if err := run([]string{"-labels", path, "-batch", "-workers", workers},
			strings.NewReader(input), &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%s: batch output differs\nbatch:\n%s\nstreaming:\n%s",
				workers, got.String(), want.String())
		}
	}
}
