package adjserve

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// front is the downstream half a Server and a Router share: the listener
// (accept loop, admission cap, connection registry, drain), the
// per-connection frame loop (read a frame, have it answered, write the
// response, flush once per read-burst) and the frame-level metrics. What
// answers a request payload is the owner's business — an engine probe, or a
// fan-out over shards — reached through the frameConn the owner opens per
// connection.
type front struct {
	open func() frameConn // set by the owner's constructor
	m    *frontMetrics    // the owner's metrics

	// maxConns, when > 0, caps concurrently open connections: an accept past
	// the cap is answered with one shed frame and closed, so a
	// protocol-speaking client sees ErrShed on its next call instead of a
	// bare RST. Set before Serve.
	maxConns int

	// maxPendingResp, when > 0, caps responses coalesced into a connection's
	// write buffer before a forced Flush. Coalescing amortizes one syscall
	// over a read-burst of pipelined frames; the cap bounds both the latency a
	// buffered answer can sit unflushed and — because Flush blocks when the
	// client stops reading — the per-connection buffered state. 0 selects
	// DefaultMaxPendingResponses.
	maxPendingResp int

	// charge, when non-nil, is told about every frame written: messages, wire
	// bytes, answered queries (Server.Traffic).
	charge func(msgs, bytes, queries int64)

	// sink, when non-nil, collects completed traces: frames that arrived
	// with a trace context, frames self-selected by the sink's sampler, and
	// frames over the slow threshold. Set before Serve; a nil sink still
	// echoes trace blocks to remotely-traced frames (the capability is
	// protocol-level, collection is per-daemon policy).
	sink *obs.TraceSink

	// draining is read by every connection's frame loop once per frame, so it
	// is an atomic rather than a field under mu (the mutex protects only the
	// connection registry).
	draining atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// frameConn is one connection's answering state, owned by that connection's
// frame loop and pooled by its owner across connections.
type frameConn interface {
	// request returns the buffer the next n-byte payload is read into.
	request(n int) []byte
	// answer answers one fully-read request payload (it may edit the payload
	// in place); the response is valid until the next call. start is the
	// instant the payload finished reading; readNs and queueNs are the
	// frame's already-measured read and queue-wait stages.
	answer(req []byte, start time.Time, readNs, queueNs int64) (resp []byte, queries int)
	close()
}

// reqBuf is the request buffer every frameConn embeds: it grows to the largest
// request seen and, being pooled, is not re-allocated by short-lived connections.
type reqBuf struct{ req []byte }

func (b *reqBuf) request(n int) []byte {
	if cap(b.req) < n {
		b.req = make([]byte, n)
	}
	return b.req[:n]
}

// DefaultMaxPendingResponses is the per-connection coalescing bound when
// Server.SetMaxPendingResponses is unset: how many answered frames may sit in
// the write buffer before a forced Flush.
const DefaultMaxPendingResponses = 64

// SetMaxConns caps concurrently open client connections; n <= 0 means
// unlimited. A connection accepted past the cap is answered with a single
// shed frame and closed (counted in ConnsShed), so load generators and
// routers observe ErrShed rather than a connection reset. Must be called
// before Serve.
func (f *front) SetMaxConns(n int) { f.maxConns = n }

// SetTraceSink installs the trace collection point (sampling policy, trace
// ring, slow-frame log). nil disables collection; trace blocks are still
// echoed to traced requests. Must be called before Serve.
func (f *front) SetTraceSink(sink *obs.TraceSink) { f.sink = sink }

// Serve accepts connections on ln until Close, answering each connection's
// frames in order on its own goroutine (a router's fan-out inside a frame is
// concurrent, the frames are not reordered). It returns ErrClosed after
// Close, or the first accept error otherwise.
func (f *front) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.draining.Load() {
		// Close raced ahead of us and never saw this listener; close it here
		// or it would keep accepting handshakes into the kernel backlog that
		// no goroutine will ever answer.
		f.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	f.ln = ln
	if f.conns == nil {
		f.conns = make(map[net.Conn]struct{})
	}
	f.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if f.draining.Load() {
				return ErrClosed
			}
			return err
		}
		f.mu.Lock()
		if f.draining.Load() {
			f.mu.Unlock()
			c.Close()
			continue
		}
		if f.maxConns > 0 && len(f.conns) >= f.maxConns {
			// Admission control: the cap protects the connections already
			// admitted. The rejection is answered off the accept loop so a
			// slow or dead peer cannot stall further accepts.
			f.mu.Unlock()
			f.m.ConnsShed.Inc()
			go refuseConn(c)
			continue
		}
		f.conns[c] = struct{}{}
		f.wg.Add(1)
		f.mu.Unlock()
		go f.handle(c)
	}
}

// ListenAndServe listens on addr and calls Serve.
func (f *front) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return f.Serve(ln)
}

// Close drains: the listener stops accepting, every connection finishes the
// frame it is answering (pending responses are flushed), and Close returns
// once all connection goroutines have exited. Frames a pipelining client had
// buffered beyond the in-flight one are dropped with the connection; clients
// recover by reconnecting. Close is idempotent.
func (f *front) Close() error {
	f.mu.Lock()
	if !f.draining.CompareAndSwap(false, true) {
		f.mu.Unlock()
		f.wg.Wait()
		return nil
	}
	ln := f.ln
	// Wake handlers blocked in a read; they observe draining and exit after
	// flushing whatever they already answered.
	for c := range f.conns {
		c.SetReadDeadline(time.Now())
	}
	f.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	f.wg.Wait()
	return err
}

// refuseConn answers an over-cap connection with one shed frame and closes
// it. It waits for (and discards) the peer's first request before answering,
// so the shed frame is always matched FIFO to a call the client actually made
// — an unsolicited response would make the client condemn the whole
// connection as protocol corruption instead of failing one call with ErrShed.
// A peer that never writes just sees the close after the deadline.
func refuseConn(c net.Conn) {
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	c.SetReadDeadline(deadline)
	c.SetWriteDeadline(deadline)
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[:]))
	if plen > maxFramePayload {
		return
	}
	if _, err := io.CopyN(io.Discard, c, plen); err != nil {
		return
	}
	shed := appendShed(nil)
	fhdr := frameHeader(len(shed))
	if _, err := c.Write(fhdr[:]); err != nil {
		return
	}
	c.Write(shed)
}

// handle runs one connection's frame loop.
func (f *front) handle(c net.Conn) {
	m := f.m
	m.ConnsTotal.Inc()
	m.ConnsActive.Add(1)
	fc := f.open()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	maxPending := f.maxPendingResp
	if maxPending <= 0 {
		maxPending = DefaultMaxPendingResponses
	}
	// Both header arrays escape (their slices reach the net.Conn interface
	// through bufio's large-write bypass), so they live here — one allocation
	// per connection, not one per frame.
	var hdr, fhdr [frameHeaderLen]byte
	// pending counts responses coalesced into bw since the last Flush: the
	// flush below fires once per read-burst rather than once per frame, and
	// maxPending bounds how long an answer can sit buffered (and, because a
	// full socket makes Flush block, how far the loop can read ahead of a
	// client that stopped reading — backpressure, not unbounded buffering).
	pending := 0
	// queued is this connection's contribution to the aggregate QueuedFrames
	// gauge: frames whose payload has been read but whose response has not yet
	// been flushed. Charging the whole unflushed burst (rather than just the
	// frame being answered) is what makes the gauge a real queue-depth signal
	// — a connection sitting on eight pipelined frames is eight frames of
	// backlog even though only one is on the CPU.
	queued := 0
	release := func() {
		if queued > 0 {
			m.QueuedFrames.Add(int64(-queued))
			queued = 0
		}
	}
	defer func() {
		// The end-of-connection flush (drain, read error, dead peer): its
		// failure cannot change control flow, but it is still counted, so
		// dead-peer writes show up in /metrics instead of vanishing.
		if err := bw.Flush(); err != nil {
			m.WriteErrors.Inc()
		}
		release()
		fc.close()
		m.ConnsActive.Add(-1)
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
		c.Close()
		f.wg.Done()
	}()
	// burstStart anchors the queue-wait stage: it is reset whenever a header
	// read actually blocked (the connection was idle), so a frame's queue
	// time is how long it sat buffered behind earlier frames of the same
	// pipelined read-burst — zero for unpipelined traffic.
	var burstStart time.Time
	for !f.draining.Load() {
		waiting := br.Buffered() >= frameHeaderLen
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF (client went away), the Close wake-up deadline, or a torn
			// header; nothing more to answer either way.
			return
		}
		tHdr := time.Now()
		if !waiting {
			burstStart = tHdr
		}
		plen := int(binary.LittleEndian.Uint32(hdr[:]))
		var resp []byte
		queries := 0
		if plen > maxFramePayload {
			// The framing itself is still trustworthy, so skip the payload
			// and answer with an error frame instead of dropping the
			// connection.
			if _, err := io.CopyN(io.Discard, br, int64(plen)); err != nil {
				return
			}
			resp = appendErr(nil, "frame of %d bytes exceeds limit %d", plen, maxFramePayload)
			m.ErrorFrames.Inc()
		} else {
			req := fc.request(plen)
			if _, err := io.ReadFull(br, req); err != nil {
				return
			}
			// The queued-frame window opens once the payload is fully read and
			// closes when the response is flushed (see release); summed over
			// connections it is the depth the shedding bound compares against.
			m.QueuedFrames.Add(1)
			queued++
			tPayload := time.Now()
			resp, queries = fc.answer(req, tPayload, int64(tPayload.Sub(tHdr)), int64(tHdr.Sub(burstStart)))
		}
		// Frame-granular accounting: a few uncontended atomic adds per
		// frame, amortized over the whole batch — the per-query serving path
		// stays untouched.
		m.Frames.Inc()
		m.BytesIn.Add(int64(frameHeaderLen + plen))
		m.BytesOut.Add(int64(frameHeaderLen + len(resp)))
		fhdr = frameHeader(len(resp))
		if _, err := bw.Write(fhdr[:]); err != nil {
			return
		}
		if _, err := bw.Write(resp); err != nil {
			return
		}
		if f.charge != nil {
			f.charge(2, int64(2*frameHeaderLen+plen+len(resp)), int64(queries))
		}
		pending++
		// Pipelining-aware flush: hold responses while more complete frames
		// are already buffered (one Flush per read-burst), but never hold
		// more than maxPending answers; flush before the next read could
		// block. A flush failure means the peer is gone — close now rather
		// than discovering it one sticky-errored write later.
		if br.Buffered() < frameHeaderLen || pending >= maxPending {
			if err := bw.Flush(); err != nil {
				return
			}
			pending = 0
			release()
		}
	}
}

// traceCtx is the per-frame trace state an answerer keeps on the stack:
// zero-valued (two bools, a word) when the frame is untraced and unsampled.
type traceCtx struct {
	remote bool   // request carried a trace context; echo a trace block
	sample bool   // self-selected by the sink's sampler; deposit locally
	id     uint64 // propagated or freshly generated trace id
}

// beginTrace strips a request's optional trace context and decides whether
// the frame is self-sampled. The context is stripped in place — the last id
// byte is overwritten with the bare op and the payload re-sliced — so the
// returned request has the untraced shape; op is its first byte.
func beginTrace(req []byte, sink *obs.TraceSink) (tc traceCtx, rest []byte, op byte) {
	if len(req) > traceIDLen && req[0]&opTraceFlag != 0 {
		tc.remote = true
		tc.id = binary.LittleEndian.Uint64(req[1 : 1+traceIDLen])
		req[traceIDLen] = req[0] &^ opTraceFlag
		req = req[traceIDLen:]
	}
	if len(req) > 0 {
		op = req[0]
	}
	if !tc.remote && sink.SampleNow() {
		tc.sample = true
		tc.id = obs.NewTraceID()
	}
	return tc, req, op
}

// slowFrame reports whether a frame that took total nanoseconds is over the
// sink's slow threshold and must be captured even if nothing sampled it.
func slowFrame(sink *obs.TraceSink, total int64) bool {
	slowNs := sink.SlowThreshold()
	return slowNs > 0 && total > slowNs
}

// finish closes a captured frame (traced, sampled or slow) whose stages are
// in t: the stages are echoed to a remote tracer behind an OK response —
// error and shed responses stay byte-identical to the untraced protocol — and
// the completed trace is deposited into the sink. It returns the response.
func (tc traceCtx) finish(sink *obs.TraceSink, t *obs.SpanTally, resp []byte, op byte, queries int, total int64, slow bool) []byte {
	if tc.remote && len(resp) > 0 && resp[0] == statusOK {
		resp[0] |= opTraceFlag
		resp = appendTraceTally(resp, t)
	}
	if t.ID == 0 {
		t.ID = obs.NewTraceID() // slow-captured but never sampled
	}
	var tr obs.Trace
	tr.Fill(t, op, queries, total)
	if tc.remote || tc.sample {
		sink.Deposit(&tr)
	}
	if slow {
		sink.DepositSlow(&tr)
	}
	return resp
}
