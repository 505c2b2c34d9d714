package main

import (
	"fmt"
	"time"

	"repro/internal/adjserve"
)

// ladder is ROADMAP's rung ladder, timed from outside on the workload's own
// ring: one connection, one caller, the same fixed run of pairs on every
// rung, ns per pair. Each rung wraps the one below it in one more layer, so
// the difference between neighbours is that layer's cost, and the differences
// add up to the top rung by construction.
type ladder struct {
	peek   float64 // bitstr: one header word read per pair
	probe  float64 // core: one engine call per pair
	batch  float64 // core: one engine call per frame
	mem    float64 // adjserve: client ↔ server over an in-memory conn
	tcp    float64 // adjserve: client ↔ server over loopback TCP
	routed float64 // adjserve: client ↔ router ↔ shards over loopback TCP; 0 unless routed
}

// peekBits is the header width the floor rung reads from each label.
const peekBits = 8

// peekSink keeps the peek rung's reads live past the optimiser.
var peekSink uint64

// timeRung runs pass the given number of times over pairs pairs and returns
// the median ns per pair. A pass reports how many answers were wrong; any
// wrong answer or error fails the rung.
func timeRung(name string, passes, pairs int, pass func() (wrong int, err error)) (float64, error) {
	ns := make([]float64, passes)
	for i := range ns {
		start := time.Now()
		wrong, err := pass()
		elapsed := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("ladder rung %s: %w", name, err)
		}
		if wrong != 0 {
			return 0, fmt.Errorf("ladder rung %s: %d answers differ from the oracle", name, wrong)
		}
		ns[i] = float64(elapsed.Nanoseconds()) / float64(pairs)
	}
	return median(ns), nil
}

// servedPass returns a rung pass that sends the fixed frames through c one at
// a time.
func servedPass(c querier, w workload, r *ring, frames int) func() (int, error) {
	var a answers
	return func() (wrong int, err error) {
		for f := 0; f < frames; f++ {
			k, err := callFrame(c, w.dist, r, f, &a, nil)
			if err != nil {
				return 0, err
			}
			wrong += k
		}
		return wrong, nil
	}
}

// runLadder times every rung. direct is the lone-server fleet whose engine
// the in-process rungs probe; routed is the router fleet, nil unless the
// workload has one.
func runLadder(w workload, r *ring, direct, routed *fleet, passes int) (ladder, error) {
	var (
		l      ladder
		err    error
		pairs  = 1 << w.logFixed
		frames = pairs / w.batch
		fixed  = r.pairs[:pairs]
	)
	for _, p := range fixed {
		if direct.labels[p[0]].Len() < peekBits {
			return l, fmt.Errorf("label of vertex %d is shorter than the %d-bit header the peek rung reads", p[0], peekBits)
		}
	}
	if l.peek, err = timeRung("peek", passes, pairs, func() (int, error) {
		var acc uint64
		for _, p := range fixed {
			acc += direct.labels[p[0]].MustPeekUint(0, peekBits)
		}
		peekSink = acc
		return 0, nil
	}); err != nil {
		return l, err
	}

	var a answers
	if w.dist {
		l.probe, err = timeRung("probe", passes, pairs, func() (wrong int, err error) {
			for i, p := range fixed {
				d, err := direct.dist.Dist(p[0], p[1])
				if err != nil {
					return 0, err
				}
				if d != r.wantHop[i] {
					wrong++
				}
			}
			return wrong, nil
		})
	} else {
		l.probe, err = timeRung("probe", passes, pairs, func() (wrong int, err error) {
			for i, p := range fixed {
				b, err := direct.adj.Adjacent(p[0], p[1])
				if err != nil {
					return 0, err
				}
				if b != r.wantAdj[i] {
					wrong++
				}
			}
			return wrong, nil
		})
	}
	if err != nil {
		return l, err
	}

	if l.batch, err = timeRung("batch", passes, pairs, func() (wrong int, err error) {
		for f := 0; f < frames; f++ {
			if w.dist {
				if a.hop, err = direct.dist.DistMany(r.frame(f), a.hop[:0]); err != nil {
					return 0, err
				}
				wrong += mismatches(frameOf(r.wantHop, f, r.batch), a.hop)
			} else {
				if a.adj, err = direct.adj.AdjacentMany(r.frame(f), a.adj[:0]); err != nil {
					return 0, err
				}
				wrong += mismatches(frameOf(r.wantAdj, f, r.batch), a.adj)
			}
		}
		return wrong, nil
	}); err != nil {
		return l, err
	}

	// The in-process serve rung: a second server over the same engine, wired
	// like the fleet's, reached through memory instead of a socket.
	memSrv := adjserve.NewServer(direct.adj, 0)
	if w.dist {
		memSrv.SetDistEngine(direct.dist)
	}
	memSrv.SetTraceSink(newTraceSink())
	ml := newMemListener()
	served := make(chan struct{})
	go func() {
		defer close(served)
		memSrv.Serve(ml) // returns ErrClosed at Close
	}()
	memClient := adjserve.NewClient("mem")
	memClient.DialFunc = ml.Dial
	l.mem, err = timeRung("mem", passes, pairs, servedPass(memClient, w, r, frames))
	memClient.Close()
	memSrv.Close()
	<-served
	if err != nil {
		return l, err
	}

	tcpClient := adjserve.NewClient(direct.addr)
	l.tcp, err = timeRung("tcp", passes, pairs, servedPass(tcpClient, w, r, frames))
	tcpClient.Close()
	if err != nil {
		return l, err
	}

	if routed != nil {
		routedClient := adjserve.NewClient(routed.addr)
		l.routed, err = timeRung("routed", passes, pairs, servedPass(routedClient, w, r, frames))
		routedClient.Close()
		if err != nil {
			return l, err
		}
	}
	return l, nil
}
