package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// ioWorkerCounts is the invariance matrix for the parallel writer.
var ioWorkerCounts = []int{1, 2, 7, runtime.GOMAXPROCS(0)}

// buildLarge returns a random graph.
func buildLarge(t *testing.T, n, count int, seed int64) *Graph {
	t.Helper()
	eb := NewEdgeBuilder(n, 1)
	eb.Shard(0).AddEdges(randomEdges(n, count, seed))
	return eb.Build(1)
}

func TestWriteEdgeListParallelMatchesSequential(t *testing.T) {
	g := buildLarge(t, 2000, 30000, 1)
	var want bytes.Buffer
	if err := g.WriteEdgeList(&want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range ioWorkerCounts {
		var got bytes.Buffer
		if err := g.WriteEdgeListParallel(&got, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("workers=%d: parallel bytes differ from sequential", workers)
		}
	}
}

// errWriter fails once the byte budget would be exceeded, covering the
// parallel writer's error-drain path.
type errWriter struct{ budget int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.budget < len(p) {
		return 0, errors.New("sink full")
	}
	w.budget -= len(p)
	return len(p), nil
}

func TestWriteEdgeListParallelPropagatesError(t *testing.T) {
	g := buildLarge(t, 20000, 150000, 3)
	if err := g.WriteEdgeListParallel(&errWriter{budget: 1 << 12}, 4); err == nil {
		t.Error("write error not propagated")
	}
}

// TestEdgeListParallelRoundTripLarge writes a graph of several
// writeChunkSlots chunks in parallel and reads it back with ReadEdgeList.
func TestEdgeListParallelRoundTripLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large round-trip")
	}
	const n = 200000
	rng := rand.New(rand.NewSource(7))
	eb := NewEdgeBuilder(n, 1)
	s := eb.Shard(0)
	for i := 0; i < 600000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			s.Add(int32(u), int32(v))
		}
	}
	g := eb.Build(4)
	var buf bytes.Buffer
	if err := g.WriteEdgeListParallel(&buf, 4); err != nil {
		t.Fatal(err)
	}
	if g.offsets[n] < 2*writeChunkSlots {
		t.Fatalf("fixture too small to span chunks: %d incidences", g.offsets[n])
	}
	got, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualGraph(g, got) {
		t.Error("large round-trip differs")
	}
}
