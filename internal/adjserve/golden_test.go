package adjserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

// Golden frames: the exact response bytes of Server.process for query frames
// whose size or first failure sits on and around the probe kernel's 32-pair
// block boundary. The expectations are literals (and, for OK frames, also the
// scalar Adjacent's answers packed by hand), so the same file run against the
// commit before the block kernel proves request, response and error-frame
// bytes did not move.

// goldenFrame answers one request payload through a fresh connection scratch.
func goldenFrame(srv *Server, req []byte) []byte {
	resp, _ := srv.process(req, &connBuffers{})
	return append([]byte(nil), resp...)
}

// goldenServers returns the streaming server and the sorted-mode server over
// one engine.
func goldenServers(eng *core.QueryEngine) map[string]*Server {
	sorted := NewServer(eng, 0)
	sorted.SetSortedBatchMin(1)
	return map[string]*Server{"stream": NewServer(eng, 0), "sorted": sorted}
}

func errFrame(msg string) []byte {
	out := append([]byte{statusErr}, binary.AppendUvarint(nil, uint64(len(msg)))...)
	return append(out, msg...)
}

func TestGoldenOKFrames(t *testing.T) {
	eng := testEngine(t, 500, 7)
	ring := randomPairs(500, 4096, 3)
	// Every eleventh pair is a known edge, so the answer bits are not all zero.
	for i := 0; i < len(ring); i += 11 {
		for v := 0; v < 500; v++ {
			if ok, _ := eng.Adjacent(ring[i][0], v); ok {
				ring[i][1] = v
				break
			}
		}
	}
	golden := map[int]string{ // hex of the whole frame; sha256 for the large one
		0:    "0000",
		1:    "000180",
		31:   "001f80100280",
		32:   "002080100280",
		33:   "00218010028000",
		4096: "sha256:e73ba02b029e9f01c2949070b17907c968c3668d0d9c6e10160bfcf9f7f9dfd4",
	}
	for name, srv := range goldenServers(eng) {
		for _, count := range []int{0, 1, 31, 32, 33, 4096} {
			pairs := ring[:count]
			got := goldenFrame(srv, appendQueryReq(nil, pairs))
			want := binary.AppendUvarint([]byte{statusOK}, uint64(count))
			bits := make([]byte, (count+7)/8)
			for i, p := range pairs {
				adj, err := eng.Adjacent(p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				if adj {
					bits[i/8] |= 1 << (7 - uint(i)%8)
				}
			}
			want = append(want, bits...)
			if !bytes.Equal(got, want) {
				t.Errorf("%s count %d: frame %x, want %x", name, count, got, want)
			}
			enc := hex.EncodeToString(got)
			if count == 4096 {
				sum := sha256.Sum256(got)
				enc = "sha256:" + hex.EncodeToString(sum[:])
			}
			if enc != golden[count] {
				t.Errorf("%s count %d: frame %s, golden %s", name, count, enc, golden[count])
			}
		}
	}
}

func TestGoldenErrorFrames(t *testing.T) {
	eng := testEngine(t, 500, 7)
	_, shards := shardEngines(t, 500, 3, core.ShardRange, 7)
	shard := shards[1]
	// A pair shard 1/3 cannot answer: both endpoints thin and owned elsewhere.
	var foreign [2]int
	for u := 0; u < 500 && foreign == ([2]int{}); u++ {
		if _, err := shard.Adjacent(u, 499-u); errors.Is(err, core.ErrNotResident) {
			foreign = [2]int{u, 499 - u}
		}
	}
	if foreign == ([2]int{}) {
		t.Fatal("no non-resident pair on shard 1/3")
	}
	const count = 40
	good := make([][2]int, count) // answerable on the full engine and on the shard
	for i := range good {
		good[i] = [2]int{200 + i, 250 + i} // both owned by shard 1/3 (167..333)
	}
	// req assembles a frame that claims count pairs from the given pairs and
	// raw tail bytes, so it can stop short or carry garbage.
	req := func(pairs [][2]int, tail ...byte) []byte {
		out := []byte{opQuery, count}
		for _, p := range pairs {
			out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(p[0])), uint64(p[1]))
		}
		return append(out, tail...)
	}
	with := func(n, at int, p [2]int) [][2]int {
		pairs := append([][2]int(nil), good[:n]...)
		pairs[at] = p
		return pairs
	}
	overlong := bytes.Repeat([]byte{0xff}, 11) // a uvarint that overflows 64 bits

	for name, srv := range goldenServers(eng) {
		sortedMode := name == "sorted"
		for _, at := range []int{0, 31, 32, 33, count - 1} {
			check := func(what string, frame []byte, want string) {
				t.Helper()
				if got := goldenFrame(srv, frame); !bytes.Equal(got, errFrame(want)) {
					t.Errorf("%s %s at %d: frame %q, want %q", name, what, at, got, errFrame(want))
				}
			}
			u := binary.AppendUvarint(nil, uint64(good[at][0]))
			badU, badV := fmt.Sprintf("pair %d: bad u", at), fmt.Sprintf("pair %d: bad v", at)
			check("bad u", req(good[:at]), badU)
			check("bad v", req(good[:at], u...), badV)
			check("overlong u", req(good[:at], overlong...), badU)
			check("overlong v", req(good[:at], append(u, overlong...)...), badV)
			// The sorted path reports engine errors through AdjacentManySorted,
			// which names the pair but not its index, and decodes the whole
			// frame before it probes anything.
			rangeAt := fmt.Sprintf("pair %d (5,70000): core: vertex out of range: (5,70000) of 500", at)
			if sortedMode {
				rangeAt = "core: query (5,70000): core: vertex out of range: (5,70000) of 500"
			}
			check("range", req(with(count, at, [2]int{5, 70000})), rangeAt)
			if at > 0 {
				// An engine error at a lower index wins over a malformed pair
				// behind it, in the same block (at 31, 33, 39) or the next (32).
				want := fmt.Sprintf("pair %d (70000,5): core: vertex out of range: (70000,5) of 500", at-1)
				if sortedMode {
					want = badU
				}
				check("range before bad u", req(with(at, at-1, [2]int{70000, 5})), want)
			}
		}
		if got, want := goldenFrame(srv, req(good, 1, 2, 3)), errFrame("3 trailing bytes after 40 pairs"); !bytes.Equal(got, want) {
			t.Errorf("%s trailing: frame %q, want %q", name, got, want)
		}
		// A vertex past 2^63 prints as the client sent it in the pair, and as
		// the engine saw it in the cause.
		huge := binary.AppendUvarint(binary.AppendUvarint([]byte{opQuery, 1}, 1<<64-1), 1)
		want := "pair 0 (18446744073709551615,1): core: vertex out of range: (-1,1) of 500"
		if sortedMode {
			want = "core: query (-1,1): core: vertex out of range: (-1,1) of 500"
		}
		if got := goldenFrame(srv, huge); !bytes.Equal(got, errFrame(want)) {
			t.Errorf("%s huge vertex: frame %q, want %q", name, got, errFrame(want))
		}
	}

	for name, srv := range goldenServers(shard) {
		for _, at := range []int{0, 31, 32, 33, count - 1} {
			cause := fmt.Sprintf("core: query not resident on this shard: (%d,%d) on shard 1/3", foreign[0], foreign[1])
			want := fmt.Sprintf("pair %d (%d,%d): %s", at, foreign[0], foreign[1], cause)
			if name == "sorted" {
				want = fmt.Sprintf("core: query (%d,%d): %s", foreign[0], foreign[1], cause)
			}
			if got := goldenFrame(srv, req(with(count, at, foreign))); !bytes.Equal(got, errFrame(want)) {
				t.Errorf("%s not resident at %d: frame %q, want %q", name, at, got, errFrame(want))
			}
		}
	}
}
