package adjserve

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// A pair plane is one kind of question about a vertex pair — are u and v
// adjacent, how many hops apart are they — served end to end: a request op,
// an engine kernel, an answer codec, a router placement rule. Every plane
// shares one request framing (op, pair count, pairs) and one response framing
// (status, pair count, answers), so the client, router and server each run a
// single pair-batch loop that reads what differs from this table. Dispatch on
// the plane happens per frame, or per block of at most core.ProbeBlock pairs;
// nothing inside a pair loop asks which plane it serves.
//
// DESIGN.md ("Pair planes") lists the edit sites for adding a plane; the
// three loops are not among them.
type plane struct {
	op   byte   // request op byte
	name string // what error frames call the plane
	noun string // what a router's error frames call an upstream serving it

	// wholeStore marks a plane only an upstream holding the whole store can
	// answer: a router refuses it on a shard partition, so Router.route always
	// spreads it over a replica fleet by ownerOf(u). Planes without it are
	// placed by route's forced-owner rule.
	wholeStore bool

	// ints selects the answer shape and with it the wire codec: hop counts in
	// answers.dist as uvarints, rather than bits in answers.adj packed eight
	// to a byte.
	ints bool
}

var planes = [...]plane{
	{op: opQuery, name: "adjacency", noun: "shard"},
	{op: opDist, name: "distance", noun: "replica", wholeStore: true, ints: true},
}

var adjPlane, distPlane = &planes[0], &planes[1]

// planeOf returns the plane a request op addresses, nil for any other op.
func planeOf(op byte) *plane {
	for i := range planes {
		if planes[i].op == op {
			return &planes[i]
		}
	}
	return nil
}

// pairEngine is what the server's frame loop asks of a plane's engine
// besides its span kernel (see Server.span).
type pairEngine interface {
	FlushTally(t *core.QueryTally, pairs int)
	ObserveProbe(ns int64, traceID uint64)
}

// answers is a run of per-pair answers in the shape its plane speaks:
// adjacency bits as bools, hop distances as ints. Exactly one field is in
// use; the other has length zero, which is how the methods — chunking, the
// router's scatter, the wire codec — handle either shape without asking
// which plane they are carrying.
type answers struct {
	adj  []bool
	dist []int
}

func (a answers) len() int { return len(a.adj) + len(a.dist) }

// slice returns answers lo..hi of a. The field not in use has length zero
// (it may still hold spare capacity, see sized) and stays that way.
func (a answers) slice(lo, hi int) answers {
	if len(a.adj) != 0 {
		a.adj = a.adj[lo:hi]
	}
	if len(a.dist) != 0 {
		a.dist = a.dist[lo:hi]
	}
	return a
}

// sized returns a holding n answers of the chosen shape and none of the
// other, reusing capacity; the contents are unspecified.
func (a answers) sized(ints bool, n int) answers {
	a.adj, a.dist = a.adj[:0], a.dist[:0]
	if ints {
		a.dist = grow(a.dist, n)
	} else {
		a.adj = grow(a.adj, n)
	}
	return a
}

// scatter stores from's answers at their request positions: a[idx[j]] =
// from[j].
func (a answers) scatter(idx []int32, from answers) {
	for j, adj := range from.adj {
		a.adj[idx[j]] = adj
	}
	for j, d := range from.dist {
		a.dist[idx[j]] = d
	}
}

// bit is b as a 0/1 byte.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// grow extends out by extra entries, reusing capacity when it can.
func grow[T any](out []T, extra int) []T {
	if need := len(out) + extra; cap(out) >= need {
		return out[:need]
	}
	grown := make([]T, len(out)+extra)
	copy(grown, out)
	return grown
}

// encode appends the wire form of a's answers to a response body: adjacency
// answer i at bit i MSB-first within byte i/8, packed eight to a step,
// distances one uvarint each, clamped by wireDist. A frame may be encoded over
// several calls; every call but the last must carry a multiple of 8 answers
// (a probe block is).
func (a answers) encode(resp []byte) []byte {
	start, n := len(resp), (len(a.adj)+7)/8
	resp = slices.Grow(resp, n)[:start+n]
	out, adj := resp[start:], a.adj
	for ; len(adj) >= 8; adj, out = adj[8:], out[1:] {
		g := adj[:8]
		out[0] = bit(g[0])<<7 | bit(g[1])<<6 | bit(g[2])<<5 | bit(g[3])<<4 |
			bit(g[4])<<3 | bit(g[5])<<2 | bit(g[6])<<1 | bit(g[7])
	}
	if len(adj) > 0 {
		out[0] = 0
		for i, x := range adj {
			out[0] |= bit(x) << (7 - i)
		}
	}
	for _, d := range a.dist {
		resp = binary.AppendUvarint(resp, wireDist(d))
	}
	return resp
}

// decode fills a from the front of a response body and returns what follows
// the answers. Its errors are protocol corruption.
func (a answers) decode(body []byte) (rest []byte, err error) {
	need := (len(a.adj) + 7) / 8
	if len(body) < need {
		return nil, fmt.Errorf("%w: %d answer bytes for %d pairs", ErrClosed, len(body), len(a.adj))
	}
	full := len(a.adj) &^ 7
	for i := 0; i < full; i += 8 {
		g, x := a.adj[i:i+8], body[i/8]
		g[0], g[1], g[2], g[3] = x&0x80 != 0, x&0x40 != 0, x&0x20 != 0, x&0x10 != 0
		g[4], g[5], g[6], g[7] = x&0x08 != 0, x&0x04 != 0, x&0x02 != 0, x&0x01 != 0
	}
	for i := full; i < len(a.adj); i++ {
		a.adj[i] = body[i/8]&(1<<(7-uint(i)%8)) != 0
	}
	body = body[need:]
	for i := range a.dist {
		d, k := binary.Uvarint(body)
		if k <= 0 {
			return nil, fmt.Errorf("%w: truncated distance %d of %d", ErrClosed, i, len(a.dist))
		}
		body = body[k:]
		if d > distBeyondWire {
			return nil, fmt.Errorf("%w: distance %d out of wire range", ErrClosed, d)
		}
		if d == distBeyondWire {
			a.dist[i] = graph.Unreachable
		} else {
			a.dist[i] = int(d)
		}
	}
	return body, nil
}
