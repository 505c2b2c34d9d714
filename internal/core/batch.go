package core

import "fmt"

// The batch surface of both engines, defined once. An engine contributes one
// span kernel — QueryEngine.AdjacentSpan, DistEngine.DistSpan — and gets its
// Many entry point, its tally flushes and its probe histogram from here. The
// Many entry points call their kernel directly (a kernel reached through a
// function value would move the batch's stack tally to the heap) and share
// everything around that call.

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
