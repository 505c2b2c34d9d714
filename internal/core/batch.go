package core

import (
	"fmt"
	"runtime"
	"sync"
)

// The batch surface of both engines, defined once. An engine contributes one
// span kernel — QueryEngine.AdjacentSpan, DistEngine.DistSpan — and gets its
// Many and ManyParallel entry points, its tally flushes and its probe
// histogram from here. The single-batch entry points call their kernel
// directly (a kernel reached through a function value would move the batch's
// stack tally to the heap) and share everything around that call.

// engineMetrics is the metrics attachment both engines embed. It is the one
// mutable piece of an otherwise immutable engine: attach before sharing the
// engine across goroutines. A nil attachment costs the hot path a single
// predictable branch.
type engineMetrics struct{ metrics *EngineMetrics }

// AttachMetrics wires instrumentation into the engine's query paths. Must be
// called before the engine is shared (typically right after construction);
// passing nil detaches. The per-query cost is a stack-local tally flushed
// with O(1) atomic adds per call, preserving the 0 allocs/op guarantee.
func (e *engineMetrics) AttachMetrics(m *EngineMetrics) { e.metrics = m }

// flush charges a single-query call's tally.
func (e *engineMetrics) flush(t *QueryTally) {
	if m := e.metrics; m != nil {
		m.flush(t)
	}
}

// flushBatch charges one batch call's tally: O(1) atomic adds however many
// pairs the batch held.
func (e *engineMetrics) flushBatch(t *QueryTally, pairs int) {
	if m := e.metrics; m != nil {
		m.flush(t)
		m.batch(pairs)
	}
}

// FlushTally charges a caller-managed tally span (see QueryTally) to the
// attached metrics and zeroes the tally. pairs > 0 additionally records one
// batch of that many pairs, making an externally-streamed frame
// indistinguishable from a Many call in the exposition; pass 0 for a span
// that ended early (the queries already probed still count). A no-op apart
// from the zeroing when no metrics are attached.
func (e *engineMetrics) FlushTally(t *QueryTally, pairs int) {
	if pairs > 0 {
		e.flushBatch(t, pairs)
	} else {
		e.flush(t)
	}
	*t = QueryTally{}
}

// ObserveProbe charges one served frame's engine-probe wall time to the
// attached metrics (see EngineMetrics.ObserveProbe); a no-op without
// metrics. The serving loop calls it once per successful frame.
func (e *engineMetrics) ObserveProbe(ns int64, traceID uint64) {
	if m := e.metrics; m != nil {
		m.ObserveProbe(ns, traceID)
	}
}

// grow extends out by extra entries, reusing capacity when it can, and
// returns the extended slice and the new entries.
func grow[T any](out []T, extra int) (all, added []T) {
	start := len(out)
	if need := start + extra; cap(out) >= need {
		out = out[:need]
	} else {
		grown := make([]T, need)
		copy(grown, out)
		out = grown
	}
	return out, out[start:]
}

// finishMany closes a Many call whose span kernel answered done of pairs
// into the tail of out: the tally is charged as one batch, and a short span
// trims out to the answers before the failing pair and names that pair.
func finishMany[T any](e *engineMetrics, t *QueryTally, what string, pairs [][2]int, out []T, done int, err error) ([]T, error) {
	e.flushBatch(t, len(pairs))
	if err != nil {
		return out[:len(out)-len(pairs)+done], queryErr(what, pairs[done], err)
	}
	return out, nil
}

// queryErr names the failing pair of a batch; what is the engine's noun for
// a query ("query", "dist query").
func queryErr(what string, p [2]int, err error) error {
	return fmt.Errorf("core: %s (%d,%d): %w", what, p[0], p[1], err)
}

// batchWorkers resolves a ManyParallel worker count: <= 0 selects GOMAXPROCS,
// and no more workers than pairs.
func batchWorkers(workers, pairs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, pairs)
}

// manyParallel shards a batch across workers > 1 goroutines, each answering
// its contiguous shard through the engine's span kernel; results land in pair
// order and a failing shard drops the whole batch. The engine is read-only,
// so shards share it without synchronization; the only coordination is the
// final join.
func manyParallel[T any](e *engineMetrics, span func([][2]int, []T, *QueryTally) (int, error), what string, pairs [][2]int, out []T, workers int) ([]T, error) {
	out, res := grow(out, len(pairs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for wi := 0; wi*chunk < len(pairs); wi++ {
		lo := wi * chunk
		hi := min(lo+chunk, len(pairs))
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			// Worker-local tally, flushed once per shard: the atomics merge
			// shards without any cross-worker coordination in the loop.
			var t QueryTally
			if done, err := span(pairs[lo:hi], res[lo:hi], &t); err != nil {
				errs[wi] = queryErr(what, pairs[lo+done], err)
			}
			e.flush(&t)
		}(wi, lo, hi)
	}
	wg.Wait()
	if m := e.metrics; m != nil {
		m.batch(len(pairs)) // the workers flushed their own tallies
	}
	for _, err := range errs {
		if err != nil {
			return out[:len(out)-len(pairs)], err
		}
	}
	return out, nil
}
