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
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/labelstore"
	"repro/internal/schemes/distance"
)

// distStoreFixture writes a pll distance store and returns its path plus an
// in-process engine over the same labels.
func distStoreFixture(t *testing.T) (string, *core.DistEngine) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(150, 2.5, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := distance.PLLScheme{}.EncodeArena(g, 1, core.LayoutDegree)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		t.Fatal(err)
	}
	store, err := labelstore.NewDistArenaFile(distance.PLLScheme{}.Name(),
		map[string]string{"n": strconv.Itoa(g.N())}, arena)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.pllb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := labelstore.Write(f, store); err != nil {
		t.Fatal(err)
	}
	return path, eng
}

// TestQueryDistLocal answers distances from the store file, streaming and
// batch, and checks them against the engine.
func TestQueryDistLocal(t *testing.T) {
	path, eng := distStoreFixture(t)
	var in bytes.Buffer
	var pairs [][2]int
	for u := 0; u < 12; u++ {
		for v := 0; v < eng.N(); v += 13 {
			fmt.Fprintf(&in, "%d %d\n", u, v)
			pairs = append(pairs, [2]int{u, v})
		}
	}
	want, err := eng.DistMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []bool{false, true} {
		args := []string{"-dist", "-labels", path}
		if batch {
			args = append(args, "-batch")
		}
		var out bytes.Buffer
		if err := run(args, bytes.NewReader(in.Bytes()), &out); err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != len(pairs) {
			t.Fatalf("batch=%v: %d output lines for %d pairs", batch, len(lines), len(pairs))
		}
		for i, line := range lines {
			wantLine := fmt.Sprintf("%d %d %d", pairs[i][0], pairs[i][1], want[i])
			if line != wantLine {
				t.Fatalf("batch=%v: line %d = %q, want %q", batch, i, line, wantLine)
			}
		}
	}
}

// TestQueryDistRemote drives -dist against a live distance server and checks
// output equality with the local mode on the same store.
func TestQueryDistRemote(t *testing.T) {
	path, eng := distStoreFixture(t)
	srv := adjserve.NewServer(nil, 0)
	srv.SetDistEngine(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	var in bytes.Buffer
	for u := 0; u < 20; u++ {
		fmt.Fprintf(&in, "%d %d\n", u, (u*37)%eng.N())
	}
	var local, remote bytes.Buffer
	if err := run([]string{"-dist", "-labels", path, "-batch"}, bytes.NewReader(in.Bytes()), &local); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dist", "-remote", ln.Addr().String(), "-batch"}, bytes.NewReader(in.Bytes()), &remote); err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() {
		t.Errorf("remote output differs from local:\nlocal:\n%s\nremote:\n%s", local.String(), remote.String())
	}
}

// TestQueryDistPlaneMismatch: the store kind and the -dist flag must agree.
func TestQueryDistPlaneMismatch(t *testing.T) {
	distPath, _ := distStoreFixture(t)
	adjPath, _ := storeFixture(t)
	var out bytes.Buffer
	err := run([]string{"-labels", distPath}, strings.NewReader("0 1\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "pass -dist") {
		t.Errorf("distance store without -dist: err = %v", err)
	}
	err = run([]string{"-dist", "-labels", adjPath}, strings.NewReader("0 1\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "adjacency labels") {
		t.Errorf("-dist on adjacency store: err = %v", err)
	}
}
