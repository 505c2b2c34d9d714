package adjserve

import (
	"repro/internal/obs"
)

// batchClassLabels partitions query-frame sizes into the label values of the
// per-batch-size latency histograms. The classes straddle the benchmark and
// experiment batch sizes (1, 64, 1024, 4096, 65536), so each sweep point
// lands in its own series.
var batchClassLabels = [...]string{"1", "2-64", "65-1024", "1025-4096", ">4096"}

// batchClass maps a frame's answered pair count to its histogram class.
func batchClass(pairs int) int {
	switch {
	case pairs <= 1:
		return 0
	case pairs <= 64:
		return 1
	case pairs <= 1024:
		return 2
	case pairs <= 4096:
		return 3
	default:
		return 4
	}
}

// frontMetrics is the frame-level instrumentation of a front, the part
// ServerMetrics and RouterMetrics share: plain atomics the frame loop updates
// unconditionally (a handful of uncontended adds per frame, nothing per
// query). Every Server and Router owns one — the metrics exist whether or not
// a registry ever reads them, so the hot path carries no nil checks and no
// registration state.
type frontMetrics struct {
	ConnsActive obs.Gauge   // open client connections
	ConnsTotal  obs.Counter // connections accepted since start
	ConnsShed   obs.Counter // connections refused at the admission cap
	Frames      obs.Counter // request frames answered, all ops
	ErrorFrames obs.Counter // frames answered with an error status
	ShedFrames  obs.Counter // frames answered with a shed status (load refused)
	WriteErrors obs.Counter // response writes/flushes that failed (dead peer)
	Flushes     obs.Counter // write-buffer flushes that had responses to write
	// QueuedFrames is the aggregate in-flight frame depth: frames fully read
	// but whose response has not yet been flushed, across all connections —
	// the queue the shedding bound (Server.SetShedDepth) watches. A pipelined
	// burst charges every read frame until the burst's coalesced flush.
	QueuedFrames obs.Gauge
	Queries      obs.Counter // pairs answered
	BytesIn      obs.Counter // request wire bytes, frame headers included
	BytesOut     obs.Counter // response wire bytes, frame headers included
	// FrameLatencyNs[batchClass] is the handling time of successful pair
	// frames (request fully read → response encoded, excluding the flush; a
	// router's includes the wait behind the connection's earlier pipelined
	// frame: residence time, not service time), one histogram per batch class.
	FrameLatencyNs [len(batchClassLabels)]obs.Histogram
}

// observe charges one answered frame by its status: error and shed frames to
// their counters, a successful pair frame to the query count and its
// batch-size class's latency histogram, exemplar-stamped when traced.
func (m *frontMetrics) observe(resp []byte, queries int, ns int64, traceID uint64) {
	switch {
	case len(resp) > 0 && resp[0] == statusErr:
		m.ErrorFrames.Inc()
	case len(resp) > 0 && resp[0] == statusShed:
		m.ShedFrames.Inc()
	case queries > 0:
		m.Queries.Add(int64(queries))
		h := &m.FrameLatencyNs[batchClass(queries)]
		if traceID != 0 {
			h.ObserveExemplar(ns, traceID)
		} else {
			h.Observe(ns)
		}
	}
}

// ServerMetrics is the server's always-on instrumentation, exposed by
// Register.
type ServerMetrics struct {
	frontMetrics
	ShedEvents obs.Counter // times the shedding latch tripped on
}

// register exposes the frame-level metrics on reg under family (adjserve for
// a server, adjserve_router for a router's downstream side).
func (m *frontMetrics) register(reg *obs.Registry, family string) {
	reg.Gauge(family+"_connections_active", "Open client connections.", &m.ConnsActive)
	reg.Counter(family+"_connections_total", "Client connections accepted.", &m.ConnsTotal)
	reg.Counter(family+"_connections_shed_total", "Connections refused at the admission cap.", &m.ConnsShed)
	reg.Counter(family+"_frames_total", "Request frames answered (all ops).", &m.Frames)
	reg.Counter(family+"_error_frames_total", "Frames answered with an error status.", &m.ErrorFrames)
	reg.Counter(family+"_shed_frames_total", "Frames answered with a shed status (load refused).", &m.ShedFrames)
	reg.Counter(family+"_write_errors_total", "Response writes or flushes that failed (dead peer).", &m.WriteErrors)
	reg.Counter(family+"_flushes_total", "Write-buffer flushes that had responses to write; frames per flush is the response coalescing.", &m.Flushes)
	reg.Gauge(family+"_queued_frames", "Frames read but not yet flushed, across all connections.", &m.QueuedFrames)
	reg.Counter(family+"_queries_total", "Pairs answered.", &m.Queries)
	reg.Counter(family+"_bytes_in_total", "Request bytes read, frame headers included.", &m.BytesIn)
	reg.Counter(family+"_bytes_out_total", "Response bytes written, frame headers included.", &m.BytesOut)
	for i := range m.FrameLatencyNs {
		reg.Histogram(family+"_frame_latency_ns",
			"Pair-frame handling time in nanoseconds by batch-size class (payload read to response encoded; on a router this includes the wait behind the connection's earlier pipelined frame).",
			&m.FrameLatencyNs[i], "batch", batchClassLabels[i])
	}
}

// Register exposes the metrics on reg under the adjserve_* family names.
// Call once per registry.
func (m *ServerMetrics) Register(reg *obs.Registry) {
	m.register(reg, "adjserve")
	reg.Counter("adjserve_shed_events_total", "Times the load-shedding latch tripped on.", &m.ShedEvents)
}

// ClientMetrics is the client's always-on instrumentation, mirroring
// ServerMetrics: redial behavior and pipelining depth, updated by the call
// path and exposed by Register.
type ClientMetrics struct {
	DialAttempts obs.Counter // dials tried, including retries
	DialFailures obs.Counter // dials that returned an error
	Redials      obs.Counter // successful reconnects after a lost connection
	FramesSent   obs.Counter // request frames written
	Flushes      obs.Counter // write-buffer flushes that had frames to write
	ShedFrames   obs.Counter // responses that were shed frames (ErrShed)
	BytesOut     obs.Counter // request wire bytes written, frame headers included
	BytesIn      obs.Counter // response wire bytes read, frame headers included
	InFlight     obs.Gauge   // frames written but not yet answered
}

// Register exposes the metrics on reg under the adjserve_client_* family
// names. Call once per registry.
func (m *ClientMetrics) Register(reg *obs.Registry) { m.RegisterWith(reg) }

// RegisterWith is Register with label pairs attached to every series, so
// multiple clients (the router's per-upstream connections) can share one
// registry: each client registers under a distinguishing label set such as
// "shard", "2", "lane", "0".
func (m *ClientMetrics) RegisterWith(reg *obs.Registry, labels ...string) {
	reg.Counter("adjserve_client_dial_attempts_total", "Connection dials attempted, retries included.", &m.DialAttempts, labels...)
	reg.Counter("adjserve_client_dial_failures_total", "Connection dials that failed.", &m.DialFailures, labels...)
	reg.Counter("adjserve_client_redials_total", "Successful reconnects after a lost connection.", &m.Redials, labels...)
	reg.Counter("adjserve_client_frames_total", "Request frames written.", &m.FramesSent, labels...)
	reg.Counter("adjserve_client_flushes_total", "Write-buffer flushes that had request frames to write; frames per flush is the send-side coalescing.", &m.Flushes, labels...)
	reg.Counter("adjserve_client_shed_frames_total", "Responses that were shed frames.", &m.ShedFrames, labels...)
	reg.Counter("adjserve_client_bytes_out_total", "Request bytes written, frame headers included.", &m.BytesOut, labels...)
	reg.Counter("adjserve_client_bytes_in_total", "Response bytes read, frame headers included.", &m.BytesIn, labels...)
	reg.Gauge("adjserve_client_inflight_frames", "Frames written but not yet answered.", &m.InFlight, labels...)
}
