package main

import (
	"fmt"
	"io"
	"net/http"
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

// TestDistanceStoreMetrics: a distance daemon's /metrics names its engine
// counters by plane — dist_engine_* — and carries none of the adjacency
// engine's engine_* series.
func TestDistanceStoreMetrics(t *testing.T) {
	path, eng := distStoreFixture(t, distance.PLLScheme{})
	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- run([]string{"-labels", path, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}, out, stop)
	}()
	var addr, admin string
	for addr == "" || admin == "" {
		select {
		case addr = <-out.addrC:
		case admin = <-out.adminC:
		case err := <-errC:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("no readiness lines\n%s", out.String())
		}
	}
	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {2, 3}, {4, eng.N() - 1}}
	if _, err := c.DistMany(pairs, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := "\n" + string(body)
	if want := fmt.Sprintf("\ndist_engine_queries_total %d\n", len(pairs)); !strings.Contains(metrics, want) {
		t.Errorf("scrape missing %q", strings.TrimSpace(want))
	}
	for _, family := range []string{"engine_queries_total", "engine_branch_thin_inline_total"} {
		if strings.Contains(metrics, "\n"+family) {
			t.Errorf("distance daemon exposes adjacency series %s", family)
		}
	}
	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain\n%s", out.String())
	}
}
