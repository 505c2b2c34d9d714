package main

import (
	"fmt"
	"time"

	"repro/internal/experiments"
)

// The four workloads. Each is a closed loop of 2 connections × 2 pipelined
// callers against a fleet booted in-process on loopback TCP; they differ in
// which layer does most of the work, so a change to one layer has a workload
// that shows it and others that must stay flat (see README.md).
var workloads = []workload{
	{name: "direct_b64_zipf", logN: 20, batch: 64, marginal: experiments.DistZipf, zipfS: 1.1, logRing: 21, logFixed: 19},
	{name: "direct_b4096_uniform", logN: 20, batch: 4096, marginal: experiments.DistUniform, logRing: 21, logFixed: 19},
	{name: "routed3_b256_degprop", logN: 20, batch: 256, marginal: experiments.DistDegProp, shards: 3, logRing: 21, logFixed: 19},
	{name: "dist_pll_b256", logN: 14, dist: true, batch: 256, marginal: experiments.DistUniform, logRing: 18, logFixed: 16},
}

// Graph family shared by every workload: Chung–Lu with the paper's power-law
// exponent, encoded by the Theorem 4 scheme with the same α.
const (
	alpha = 2.5
	wmin  = 2
)

// Closed-loop shape shared by every workload.
const (
	conns   = 2
	callers = 2 // per connection, pipelined
)

type workload struct {
	name     string
	logN     int  // vertices = 1<<logN
	dist     bool // distance plane (PLL) instead of adjacency
	batch    int  // pairs per frame
	marginal experiments.ProbeDist
	zipfS    float64
	shards   int // 0 = one server; otherwise a router over this many range shards
	logRing  int // probe ring holds 1<<logRing pairs
	logFixed int // the ladder's fixed-work pass covers the first 1<<logFixed pairs
}

func (w workload) routed() bool { return w.shards > 0 }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sizing is how much work one run does around the workload's shape.
type sizing struct {
	rebuilds     int           // full set-up rebuilds; setup_s is their median
	warmup       time.Duration // closed loop before the first slice
	slice        time.Duration
	slices       int // measured slices of the end-to-end phase
	layerSlices  int // slices of each of the layers pass's untraced and traced phases
	ladderPasses int // repeats of each ladder rung; the rung is their median
	refKernel    time.Duration
}

// fullSizing sizes a run that measures for the given number of seconds: one
// slice per second. The layers pass splits the same budget between its
// untraced and traced phases (8 s each at the default 20 s) so that either
// mode of a workload fits the same wall-time cap.
func fullSizing(seconds int) sizing {
	return sizing{
		rebuilds:     5,
		warmup:       2 * time.Second,
		slice:        time.Second,
		slices:       max(seconds, 2),
		layerSlices:  max(seconds*2/5, 2),
		ladderPasses: 5,
		refKernel:    50 * time.Millisecond,
	}
}

// smoke shrinks a workload and its sizing so the whole harness runs in about
// a second: what `go test` and the race job drive.
func smoke(w workload) (workload, sizing) {
	w.logN = 12
	w.logRing = 14
	w.logFixed = 12
	return w, sizing{
		rebuilds:     1,
		warmup:       50 * time.Millisecond,
		slice:        200 * time.Millisecond,
		slices:       2,
		layerSlices:  2,
		ladderPasses: 2,
		refKernel:    5 * time.Millisecond,
	}
}
