package adjserve

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// readLoopBatch is the pair count per request frame FuzzClientReadLoop's
// client sends, so a batch of up to readLoopMaxPairs pairs spans several
// pipelined frames.
const (
	readLoopBatch    = 32
	readLoopMaxPairs = 200
)

// respFrames frames response payloads as a server writes them.
func respFrames(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		hdr := frameHeader(len(p))
		out = append(append(out, hdr[:]...), p...)
	}
	return out
}

// FuzzClientReadLoop answers one client call with arbitrary response bytes:
// the client's readLoop framing and deliver's status dispatch (OK, shed,
// error, unknown status, truncated and unsolicited frames) on the adjacency
// batch, distance batch and info calls. The client dials one end of a
// net.Pipe; a peer goroutine on the other end drains the call's request
// frames, writes the fuzz bytes and closes. It must never panic, the call must
// return once the peer has closed, Pending must be back at 0, an error must be
// a shed, a remote error or a closed connection, and a call that succeeds must
// hold exactly the answers its frames carried. Seeded from golden response
// frames of both planes.
func FuzzClientReadLoop(f *testing.F) {
	adjEng := testEngine(f, 500, 7)
	adjSrv := NewServer(adjEng, 0)
	distSrv := NewServer(nil, 0)
	distSrv.SetDistEngine(testDistEngines(f, 400, 3)["pll"])
	rings := [2][][2]int{goldenRing(adjEng, readLoopMaxPairs), randomPairs(400, readLoopMaxPairs, 3)}
	srvs := [2]*Server{adjSrv, distSrv}
	ops := [2]byte{opQuery, opDist}

	// golden is the server's framed answer to the call a fuzz input of
	// (mode, count) makes.
	golden := func(mode uint8, count int) []byte {
		if mode == 2 {
			return respFrames(goldenFrame(adjSrv, []byte{opInfo}))
		}
		var payloads [][]byte
		for lo := 0; lo < count; lo += readLoopBatch {
			chunk := rings[mode][lo:min(lo+readLoopBatch, count)]
			payloads = append(payloads, goldenFrame(srvs[mode], appendPairsReq(nil, ops[mode], chunk)))
		}
		return respFrames(payloads...)
	}
	for mode := uint8(0); mode < 3; mode++ {
		for _, count := range []int{1, 31, 32, 33, 100} {
			ok := golden(mode, count)
			f.Add(ok, mode, uint16(count-1))
			f.Add(ok[:len(ok)-1], mode, uint16(count-1))                                // truncated
			f.Add(append(slices.Clone(ok), ok[:5]...), mode, uint16(count-1))           // unsolicited
			f.Add(append(respFrames([]byte{statusShed}), ok...), mode, uint16(count-1)) // shed, then answers
		}
		f.Add(respFrames(errFrame("truncated: 0 field bytes for 2 pairs of 2 bits")), mode, uint16(0))
		f.Add(respFrames(errFrame("unknown op 5")), mode, uint16(0)) // a server older than packed pair frames
		f.Add(respFrames([]byte{0x7f}), mode, uint16(0))             // unknown status
		f.Add(respFrames(nil), mode, uint16(0))                      // empty response
		f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, mode, uint16(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, count uint16) {
		mode %= 3
		pairs := 1 + int(count)%readLoopMaxPairs
		frames := (pairs + readLoopBatch - 1) / readLoopBatch
		if mode == 2 {
			frames = 1
		}
		c := NewClient("pipe")
		c.MaxBatch = readLoopBatch
		c.maxDialAttempts = 1
		var peers sync.WaitGroup
		c.DialFunc = func(string) (net.Conn, error) {
			client, peer := net.Pipe()
			peers.Add(1)
			go func() {
				defer peers.Done()
				defer peer.Close()
				var hdr [frameHeaderLen]byte
				for i := 0; i < frames; i++ {
					if _, err := io.ReadFull(peer, hdr[:]); err != nil {
						return
					}
					if _, err := io.CopyN(io.Discard, peer, int64(binary.LittleEndian.Uint32(hdr[:]))); err != nil {
						return
					}
				}
				peer.Write(data)
			}()
			return client, nil
		}
		// Closing the client's end unblocks a peer still writing.
		defer peers.Wait()
		defer c.Close()

		var (
			adj  []bool
			dist []int
			n    int
		)
		done := make(chan error, 1)
		go func() {
			var err error
			switch mode {
			case 0:
				adj, err = c.AdjacentMany(rings[0][:pairs], nil)
			case 1:
				dist, err = c.DistMany(rings[1][:pairs], nil)
			default:
				n, err = c.Info()
			}
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("call still outstanding 10 s after the peer wrote %d bytes", len(data))
		}
		if p := c.Pending(); p != 0 {
			t.Fatalf("Pending() = %d after the call returned", p)
		}
		if err != nil {
			var remote *RemoteError
			if !errors.Is(err, ErrShed) && !errors.As(err, &remote) && !errors.Is(err, ErrClosed) {
				t.Fatalf("error %v is neither a shed, a remote error nor a closed connection", err)
			}
			return
		}

		// The call succeeded, so its frames lead the data and all say OK: read
		// each one's answers off it directly.
		rest := data
		for i := 0; i < frames; i++ {
			plen := int(binary.LittleEndian.Uint32(rest))
			payload := rest[frameHeaderLen : frameHeaderLen+plen]
			rest = rest[frameHeaderLen+plen:]
			if status := payload[0] &^ opTraceFlag; status != statusOK {
				t.Fatalf("frame %d has status %d, yet the call succeeded", i, status)
			}
			if mode == 2 {
				if want, _ := binary.Uvarint(payload[1:]); uint64(n) != want {
					t.Fatalf("Info() = %d, frame carried %d", n, want)
				}
				continue
			}
			lo := i * readLoopBatch
			hi := min(lo+readLoopBatch, pairs)
			ca := &call{}
			ca.ans = ca.ans.sized(mode == 1, hi-lo)
			if err := deliverAnswers(ca, payload[1:], payload[0]&opTraceFlag != 0); err != nil {
				t.Fatalf("frame %d: the call accepted it, deliverAnswers refuses it: %v", i, err)
			}
			got := answers{adj: adj, dist: dist}.slice(lo, hi)
			if !slices.Equal(got.adj, ca.ans.adj) || !slices.Equal(got.dist, ca.ans.dist) {
				t.Fatalf("pairs %d..%d: got %v%v, frame %d carried %v%v", lo, hi, got.adj, got.dist, i, ca.ans.adj, ca.ans.dist)
			}
		}
	})
}
