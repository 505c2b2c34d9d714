package main

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memListener is the ladder's "in-process serve" rung: a net.Listener whose
// Dial hands the client one end of a buffered in-memory duplex and Accept the
// other, so a real adjserve.Client talks to a real adjserve.Server through
// their own framing, buffering and goroutines with no socket in between. The
// difference to the loopback-TCP rung is then the kernel's share alone.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// Dial has the signature of adjserve.Client.DialFunc.
func (l *memListener) Dial(string) (net.Conn, error) {
	ab, ba := newMemBuf(), newMemBuf()
	client, server := &memConn{rd: ba, wr: ab}, &memConn{rd: ab, wr: ba}
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memBufSize is each direction's capacity, the order of a loopback socket
// buffer: four pipelined 4096-pair frames fit, so writers block only when the
// reader has truly fallen behind, as they would on a socket.
const memBufSize = 256 << 10

// memBuf is one direction of a memConn: a fixed ring of bytes with blocking
// read and write, end-of-stream on close, and deadlines (adjserve.Server.Close
// wakes its blocked readers with SetReadDeadline).
type memBuf struct {
	mu         sync.Mutex
	cond       sync.Cond // any state change: bytes in, bytes out, close, deadline
	buf        []byte
	start, n   int
	closed     bool
	rdl, wdl   time.Time
	rdlT, wdlT *time.Timer
}

func newMemBuf() *memBuf {
	b := &memBuf{buf: make([]byte, memBufSize)}
	b.cond.L = &b.mu
	return b
}

func expired(t time.Time) bool { return !t.IsZero() && !time.Now().Before(t) }

func (b *memBuf) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n == 0 {
		if b.closed {
			return 0, io.EOF
		}
		if expired(b.rdl) {
			return 0, os.ErrDeadlineExceeded
		}
		b.cond.Wait()
	}
	k := min(len(p), b.n)
	first := copy(p[:k], b.buf[b.start:min(b.start+k, len(b.buf))])
	copy(p[first:k], b.buf)
	b.start = (b.start + k) % len(b.buf)
	b.n -= k
	b.cond.Broadcast()
	return k, nil
}

func (b *memBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	written := 0
	for len(p) > 0 {
		for b.n == len(b.buf) && !b.closed && !expired(b.wdl) {
			b.cond.Wait()
		}
		if b.closed {
			return written, io.ErrClosedPipe
		}
		if b.n == len(b.buf) {
			return written, os.ErrDeadlineExceeded
		}
		end := (b.start + b.n) % len(b.buf)
		k := min(len(p), len(b.buf)-b.n)
		first := copy(b.buf[end:min(end+k, len(b.buf))], p[:k])
		copy(b.buf, p[first:k])
		b.n += k
		p = p[k:]
		written += k
		b.cond.Broadcast()
	}
	return written, nil
}

func (b *memBuf) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// setDeadline stores t into *dl and arranges for blocked callers to re-check
// it when it passes.
func (b *memBuf) setDeadline(dl *time.Time, timer **time.Timer, t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	*dl = t
	if *timer != nil {
		(*timer).Stop()
		*timer = nil
	}
	if !t.IsZero() {
		*timer = time.AfterFunc(time.Until(t), b.cond.Broadcast)
	}
	b.cond.Broadcast()
}

// memConn is one end of the duplex.
type memConn struct {
	rd, wr *memBuf
}

func (c *memConn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Close ends both directions: the peer reads what is buffered and then EOF,
// and its writes fail.
func (c *memConn) Close() error {
	c.rd.close()
	c.wr.close()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

func (c *memConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.rd.setDeadline(&c.rd.rdl, &c.rd.rdlT, t)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.wr.setDeadline(&c.wr.wdl, &c.wr.wdlT, t)
	return nil
}
