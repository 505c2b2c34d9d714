package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/adjserve"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labelstore"
	"repro/internal/schemes/distance"
)

// distScheme is what distStoreFixture needs of a distance scheme.
type distScheme interface {
	Name() string
	EncodeArena(g *graph.Graph, workers int, layout core.Layout) (*core.DistArena, error)
}

// distStoreFixture encodes a distance store (degree layout) to a file and
// returns the path plus an in-process engine over the same labels for
// ground truth.
func distStoreFixture(t *testing.T, scheme distScheme) (string, *core.DistEngine) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(250, 2.5, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := scheme.EncodeArena(g, 2, core.LayoutDegree)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		t.Fatal(err)
	}
	store, err := labelstore.NewDistArenaFile(scheme.Name(),
		map[string]string{"n": strconv.Itoa(g.N())}, arena)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dists.pllb")
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

// TestServeDistanceStore boots the daemon on a pll distance store and checks
// the remote distance plane end to end: the loaded line declares the plane
// and the hub table's heap, the engine answers match, and adjacency frames
// are refused without killing the connection.
func TestServeDistanceStore(t *testing.T) {
	out, eng := serveDistanceStore(t, distance.PLLScheme{})
	if want := fmt.Sprintf("plane=distance/pll hub_table_bytes=%d ", eng.HubTableBytes()); eng.HubTableBytes() == 0 || !strings.Contains(out, want) {
		t.Errorf("loaded line does not carry %q:\n%s", want, out)
	}
}

// TestServeBoundedDistanceStore: a bdist store serves the same plane from
// its slab, so its loaded line carries no hub table.
func TestServeBoundedDistanceStore(t *testing.T) {
	out, _ := serveDistanceStore(t, distance.Scheme{Alpha: 2.5, F: 3})
	if !strings.Contains(out, "plane=distance/bdist") || strings.Contains(out, "hub_table_bytes") {
		t.Errorf("bdist loaded line: want plane=distance/bdist and no hub_table_bytes:\n%s", out)
	}
}

// serveDistanceStore runs the daemon over scheme's store through one
// connection's worth of checks and returns its log after the drain.
func serveDistanceStore(t *testing.T, scheme distScheme) (string, *core.DistEngine) {
	t.Helper()
	path, eng := distStoreFixture(t, scheme)
	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	args := []string{"-labels", path, "-addr", "127.0.0.1:0"}
	go func() { errC <- run(args, out, stop) }()
	var addr string
	select {
	case addr = <-out.addrC:
	case err := <-errC:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("no listening line\n%s", out.String())
	}
	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Info(); err != nil || n != eng.N() {
		t.Fatalf("Info = %d, %v; want %d", n, err, eng.N())
	}
	pairs := make([][2]int, 0, 300)
	for u := 0; u < 30; u++ {
		for v := 0; v < eng.N(); v += 29 {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	want, err := eng.DistMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DistMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %v = %d, engine says %d", pairs[i], got[i], want[i])
		}
	}
	if _, err := c.Adjacent(0, 1); err == nil || !strings.Contains(err.Error(), "no adjacency engine") {
		t.Errorf("adjacency frame on distance daemon: err = %v", err)
	}
	if _, err := c.Dist(0, 1); err != nil {
		t.Errorf("distance after refused adjacency frame: %v", err)
	}
	c.Close()
	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain\n%s", out.String())
	}
	return out.String(), eng
}
