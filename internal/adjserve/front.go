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
// connection: an answerConn answers inside the loop, a pipelinedConn beside it.
type front struct {
	open func() frameConn // set by the owner's constructor
	m    *frontMetrics    // the owner's metrics

	// maxConns, when > 0, caps concurrently open connections: an accept past
	// the cap is answered with one shed frame and closed, so a
	// protocol-speaking client sees ErrShed on its next call instead of a
	// bare RST. Set before Serve.
	maxConns int

	// maxPendingResp, when > 0, overrides maxPendingResponses for this
	// front's connections (tests tighten it; nothing else sets it).
	maxPendingResp int

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
// frame loop and pooled by its owner across connections: an answerConn or a
// pipelinedConn.
type frameConn interface {
	// request returns the buffer the next n-byte payload is read into.
	request(n int) []byte
	close()
}

// answerConn answers a frame in one call on the frame loop's goroutine (a
// Server's connections).
type answerConn interface {
	// answer answers one fully-read request payload (it may edit the payload
	// in place); the response is valid until the next call. start is the
	// instant the payload finished reading; readNs and queueNs are the
	// frame's already-measured read and queue-wait stages.
	answer(req []byte, start time.Time, readNs, queueNs int64) []byte
}

// pipelinedConn splits answer in two, making a Router's connections
// full-duplex: the frame loop begins frame k+1 — all that needs the payload,
// up to buffering what it asks upstream — while a second goroutine waits for
// frame k's answers in finish. Frames finish in the order they began.
type pipelinedConn interface {
	begin(slot int, req []byte, start time.Time, readNs, queueNs int64)
	// flush sends what begin left buffered; the frame loop calls it before
	// anything that can block it, once per read-burst.
	flush()
	// ready reports whether finish would return without waiting; finish's
	// response is valid until the slot begins again.
	ready(slot int) bool
	finish(slot int) []byte
}

// pipelineDepth bounds the frames (and slots) between begin and finish: two
// pipelining callers need two, four leaves room for a burst.
const pipelineDepth = 4

// reqBuf is the request buffer every frameConn embeds: it grows to the largest
// request seen and, being pooled, is not re-allocated by short-lived connections.
// Every payload it hands out has pairSlack bytes of capacity behind it, so the
// pair decoder reads a frame's last block in place.
type reqBuf struct{ req []byte }

func (b *reqBuf) request(n int) []byte {
	if cap(b.req) < n+pairSlack {
		b.req = make([]byte, n+pairSlack)
	}
	return b.req[:n]
}

// maxPendingResponses caps the answered frames a connection coalesces in its
// write buffer before a forced Flush. Coalescing amortizes one syscall over a
// read-burst of pipelined frames; the cap bounds both the latency a buffered
// answer can sit unflushed and — because Flush blocks when the client stops
// reading — the per-connection buffered state.
const maxPendingResponses = 64

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
// frames in request order (a router overlaps them upstream, never reorders).
// It returns ErrClosed after Close, or the first accept error otherwise.
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

// Close drains: the listener stops accepting, every connection finishes the
// frames it is answering (pending responses are flushed), and Close returns
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

// frameWriter is the response half of a connection's frame loop — frame
// accounting, buffered write, flush policy — used by the loop that answers
// inline or the goroutine that finishes pipelined frames. A failed write or
// flush means the peer is gone and closes the connection (which is what
// stops a pipelined loop reading).
type frameWriter struct {
	m          *frontMetrics
	c          net.Conn
	bw         *bufio.Writer
	maxPending int // caps unflushed, see front.maxPendingResp
	// unflushed counts responses coalesced into bw since the last Flush. A
	// frame is charged to the QueuedFrames gauge once its payload is read and
	// released when its response is flushed: a connection sitting on eight
	// pipelined frames is eight frames of backlog, a real queue-depth signal.
	unflushed int
	// fhdr escapes (its slice reaches the net.Conn interface through bufio's
	// large-write bypass), so it lives here: one allocation per connection.
	fhdr [frameHeaderLen]byte
}

// write buffers one response frame and charges it: a few uncontended atomic
// adds per frame, amortized over the whole batch — nothing per query.
func (w *frameWriter) write(plen int, resp []byte) error {
	w.m.Frames.Inc()
	w.m.BytesIn.Add(int64(frameHeaderLen + plen))
	w.m.BytesOut.Add(int64(frameHeaderLen + len(resp)))
	w.unflushed++
	w.fhdr = frameHeader(len(resp))
	_, err := w.bw.Write(w.fhdr[:])
	if err == nil {
		_, err = w.bw.Write(resp)
	}
	if err != nil {
		w.c.Close()
		return err
	}
	if w.unflushed >= w.maxPending {
		return w.flush()
	}
	return nil
}

// flush is the pipelining-aware flush: callers hold responses back while more
// can be answered without waiting and flush before they would block. After a
// failure the unflushed frames stay charged until teardown.
func (w *frameWriter) flush() error {
	if w.unflushed == 0 {
		return nil
	}
	w.m.Flushes.Inc()
	if err := w.bw.Flush(); err != nil {
		w.c.Close()
		return err
	}
	w.m.QueuedFrames.Add(int64(-w.unflushed))
	w.unflushed = 0
	return nil
}

// begunFrame is what the frame loop hands a pipelined connection's finisher.
type begunFrame struct {
	slot, plen int
	resp       []byte // non-nil: the loop answered the frame itself (over-limit payload)
}

// finishLoop is a pipelined connection's second goroutine: it takes begun
// frames in order, collects each one's response and writes it, flushing
// before it would wait — nothing begun, or the frame's answers not all in.
// Write errors are dropped: they closed the connection, and the frames already
// begun are still finished, which returns their slots and upstream calls.
func (w *frameWriter) finishLoop(pc pipelinedConn, pipe <-chan begunFrame, free chan<- int) {
	for {
		if len(pipe) == 0 {
			_ = w.flush()
		}
		fr, ok := <-pipe
		if !ok {
			return
		}
		resp := fr.resp
		if resp == nil {
			if !pc.ready(fr.slot) {
				_ = w.flush()
			}
			resp = pc.finish(fr.slot)
		}
		_ = w.write(fr.plen, resp)
		free <- fr.slot
	}
}

// handle runs one connection's frame loop.
func (f *front) handle(c net.Conn) {
	m := f.m
	m.ConnsTotal.Inc()
	m.ConnsActive.Add(1)
	fc := f.open()
	br := bufio.NewReaderSize(c, 64<<10)
	w := &frameWriter{m: m, c: c, bw: bufio.NewWriterSize(c, 64<<10), maxPending: f.maxPendingResp}
	if w.maxPending <= 0 {
		w.maxPending = maxPendingResponses
	}
	ac, _ := fc.(answerConn)
	pc, _ := fc.(pipelinedConn)
	var pipe chan begunFrame
	var free chan int
	var finished chan struct{}
	if pc != nil {
		// A frame holds a slot from before it enters pipe until after it
		// leaves, so with both sized to the slots neither send can block.
		pipe, free, finished = make(chan begunFrame, pipelineDepth), make(chan int, pipelineDepth), make(chan struct{})
		for slot := 0; slot < pipelineDepth; slot++ {
			free <- slot
		}
		go func() {
			defer close(finished)
			w.finishLoop(pc, pipe, free)
		}()
	}
	defer func() {
		if pc != nil {
			// Every begun frame is finished before the connection goes away.
			pc.flush()
			close(pipe)
			<-finished
		}
		// The end-of-connection flush (drain, read error, dead peer): its
		// failure cannot change control flow but is counted, so dead-peer
		// writes show up in /metrics instead of vanishing.
		if err := w.flush(); err != nil {
			m.WriteErrors.Inc()
			m.QueuedFrames.Add(int64(-w.unflushed))
		}
		fc.close()
		m.ConnsActive.Add(-1)
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
		c.Close()
		f.wg.Done()
	}()
	var hdr [frameHeaderLen]byte // escapes like frameWriter.fhdr
	// burstStart anchors the queue-wait stage: it is reset whenever a header
	// read actually blocked (the connection was idle), so a frame's queue
	// time is how long it sat buffered behind earlier frames of the same
	// pipelined read-burst — zero for unpipelined traffic.
	var burstStart time.Time
	for !f.draining.Load() {
		waiting := br.Buffered() >= frameHeaderLen
		if !waiting {
			// The read can block: what was held back goes out first.
			if pc != nil {
				pc.flush()
			} else if w.flush() != nil {
				return
			}
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF (client went away), the Close wake-up deadline, or a torn
			// header; nothing more to answer either way.
			return
		}
		tHdr := time.Now()
		if !waiting {
			burstStart = tHdr
		}
		fr := begunFrame{plen: int(binary.LittleEndian.Uint32(hdr[:]))}
		if pc != nil && br.Buffered() < fr.plen {
			pc.flush()
		}
		var req []byte
		if fr.plen > maxFramePayload {
			// The framing itself is still trustworthy: skip the payload and
			// answer with an error frame instead of dropping the connection.
			if _, err := io.CopyN(io.Discard, br, int64(fr.plen)); err != nil {
				return
			}
			fr.resp = appendErr(nil, "frame of %d bytes exceeds limit %d", fr.plen, maxFramePayload)
			m.ErrorFrames.Inc()
		} else {
			req = fc.request(fr.plen)
			if _, err := io.ReadFull(br, req); err != nil {
				return
			}
		}
		m.QueuedFrames.Add(1) // until the response is flushed, see frameWriter
		tPayload := time.Now()
		readNs, queueNs := int64(tPayload.Sub(tHdr)), int64(tHdr.Sub(burstStart))
		if pc == nil {
			if fr.resp == nil {
				fr.resp = ac.answer(req, tPayload, readNs, queueNs)
			}
			if w.write(fr.plen, fr.resp) != nil {
				return
			}
			continue
		}
		if len(free) == 0 {
			pc.flush()
		}
		fr.slot = <-free
		if fr.resp == nil {
			pc.begin(fr.slot, req, tPayload, readNs, queueNs)
		}
		pipe <- fr
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
