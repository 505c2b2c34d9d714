package main

import (
	"bytes"
	"fmt"
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
	"repro/internal/schemes/baseline"
)

// storeFixture labels a small graph and writes a label store, returning the
// path and the graph for truth checks.
func storeFixture(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	g, lab := fixtureLabeling(t)
	return writeStore(t, lab.Scheme(), labelsOf(t, lab, nil), layoutOf(lab)), g
}

// fixtureLabeling is the sparse labeling of the 40-vertex fixture graph.
func fixtureLabeling(t *testing.T) (*graph.Graph, *core.Labeling) {
	t.Helper()
	g := gen.ErdosRenyi(40, 0.12, 9)
	lab, err := core.NewSparseSchemeAuto().Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, lab
}

// layoutOf is a labeling's rank→vertex permutation (nil: vertex order).
func layoutOf(lab *core.Labeling) []int32 {
	_, order, _ := lab.ArenaLayout()
	return order
}

// labelsOf returns an encoder's labels, one per vertex.
func labelsOf(t *testing.T, lab *core.Labeling, err error) []bitstr.String {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]bitstr.String, lab.N())
	for v := range labels {
		if labels[v], err = lab.Label(v); err != nil {
			t.Fatal(err)
		}
	}
	return labels
}

// writeStore packs labels, label order[r] at slab rank r (order nil: vertex
// order), into a store file and returns its path.
func writeStore(t *testing.T, scheme string, labels []bitstr.String, order []int32) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "l.pllb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	physical := labels
	if order != nil {
		physical = make([]bitstr.String, len(order))
		for r, v := range order {
			physical[r] = labels[v]
		}
	}
	slab, _ := bitstr.PackSlab(physical)
	bitLens := make([]int, len(labels))
	for v, l := range labels {
		bitLens[v] = l.Len()
	}
	store, err := labelstore.NewPermutedArenaFile(scheme, map[string]string{"n": strconv.Itoa(len(labels))}, slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := labelstore.Write(f, store); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQueryRefusesUnservableStore: plquery answers exactly the stores plserve
// serves and refuses the rest at start, streaming and batch, with no answer
// printed: a fat/thin store whose labels the query engine rejects — here thin
// label 36 padded by one bit — the same labels in vertex order, a stale store
// from before the degree layout (re-run pllabel), and stores whose scheme
// names no fat/thin layout (adjmatrix, and a CompressedScheme labeling),
// refused by name.
func TestQueryRefusesUnservableStore(t *testing.T) {
	g, lab := fixtureLabeling(t)
	scheme, labels, order := lab.Scheme(), labelsOf(t, lab, nil), layoutOf(lab)
	stale := writeStore(t, scheme, labels, nil)
	if fat, _ := labels[36].Bit(0); fat {
		t.Fatal("fixture label 36 is fat; the test pads a thin one")
	}
	var b bitstr.Builder
	for i := range labels[36].Len() {
		bit, _ := labels[36].Bit(i)
		b.AppendBit(bit)
	}
	b.AppendBit(false)
	labels[36] = b.String()
	adj, err := baseline.AdjMatrix{}.Encode(g)
	adjLabels := labelsOf(t, adj, err)
	comp, err := core.NewCompressedScheme(core.NewFixedThresholdScheme(3)).Encode(g)
	compLabels := labelsOf(t, comp, err)
	for _, tc := range []struct{ path, want string }{
		{writeStore(t, scheme, labels, order), "not a multiple of id width"},
		{stale, "re-run pllabel"},
		{writeStore(t, adj.Scheme(), adjLabels, nil), adj.Scheme()},
		{writeStore(t, comp.Scheme(), compLabels, nil), comp.Scheme()},
	} {
		for _, extra := range [][]string{nil, {"-batch"}} {
			var out bytes.Buffer
			err := run(append([]string{"-labels", tc.path}, extra...), strings.NewReader("36 7\n0 1\n"), &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s%v: err = %v, want a refusal naming %q", tc.want, extra, err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("%s%v: answered from a refused store:\n%s", tc.want, extra, out.String())
			}
		}
	}
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

// TestQueryStatsFlag: -stats prints a whole store's label statistics, and on
// a shard store its shard map and the statistics of the labels it holds —
// owned and fat ones, not the absent foreign thin labels.
func TestQueryStatsFlag(t *testing.T) {
	path, _ := storeFixture(t)
	var out bytes.Buffer
	if err := run([]string{"-labels", path, "-stats"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=40") {
		t.Errorf("stats output %q", out.String())
	}

	g, err := gen.ChungLuPowerLaw(300, 2.5, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewPowerLawScheme(2.5)
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	arenas, err := core.ShardLabelArenas(slab, lab.BitLens(), order, 3, core.ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	a := arenas[1]
	store, err := labelstore.NewShardArenaFile(lab.Scheme(), map[string]string{"n": "300"}, a.Slab, a.BitLens, order,
		core.ShardMap{Count: 3, Index: 1, Fn: core.ShardRange})
	if err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(t.TempDir(), "s.pllb.shard1")
	var img bytes.Buffer
	if err := labelstore.Write(&img, store); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	held, most, total := 0, 0, 0
	for _, bits := range a.BitLens {
		if bits > 0 {
			held, most, total = held+1, max(most, bits), total+bits
		}
	}
	if held == a.Owned || held == g.N() {
		t.Fatalf("shard 1 holds %d labels of %d, owning %d: the row pins nothing", held, g.N(), a.Owned)
	}
	out.Reset()
	if err := run([]string{"-labels", shardPath, "-stats"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("scheme=%s n=300 shard=1/3 fn=range held=%d max=%d bits mean=%.1f bits\n",
		lab.Scheme(), held, most, float64(total)/float64(held))
	if out.String() != want {
		t.Errorf("shard stats output %q, want %q", out.String(), want)
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

// TestQueryRemoteMode: -remote against a loopback adjserve server over the
// same labeling must produce byte-identical output to the local -labels
// mode, in both streaming and batch form (including interleaved parse
// errors, which never reach the network).
func TestQueryRemoteMode(t *testing.T) {
	path, _ := storeFixture(t)
	store, err := labelstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng, _, err := store.Engines()
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
// (same lines, same order, parse errors interleaved).
func TestQueryBatchMode(t *testing.T) {
	path, _ := storeFixture(t)
	input := "garbage\n0 1\n2 3\n0 999\n4 5\n# c\n6 7\n"
	var want, got bytes.Buffer
	if err := run([]string{"-labels", path}, strings.NewReader(input), &want); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-labels", path, "-batch"}, strings.NewReader(input), &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("batch output differs\nbatch:\n%s\nstreaming:\n%s", got.String(), want.String())
	}
}
