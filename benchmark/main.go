// Command benchmark is the repo's benchmark: four closed-loop serving
// workloads over fleets booted in-process on loopback TCP, every answer
// checked against an oracle computed from the graph, reported as end-to-end
// metrics (the default) or attributed layer by layer (-trace 1). README.md in
// this directory is the glossary; BENCHMARK.json at the repo root is the
// contract the driver reads.
//
//	go run ./benchmark -workload direct_b64_zipf -seed 1
//	go run ./benchmark -workload routed3_b256_degprop -seed 1 -mode layers
//	go run ./benchmark -aa 5
package main

import (
	"flag"
	"fmt"
	"os"
)

// scratchRoot is where store files go, relative to the working directory: the
// benchmark writes nowhere outside the checkout it runs in.
const scratchRoot = ".bench_build"

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var (
		name    = fs.String("workload", "", "workload to run (required unless -aa): direct_b64_zipf | direct_b4096_uniform | routed3_b256_degprop | dist_pll_b256")
		seed    = fs.Int64("seed", 1, "seeds the graph and, offset by 7, the probe stream")
		seconds = fs.Int("seconds", 20, "seconds the measured phase runs, one slice per second")
		trace   = fs.Int("trace", 0, "1 runs the per-layer pass (ladder, counters, traced phase) instead of the end-to-end pass")
		mode    = fs.String("mode", "", "e2e | layers; -mode layers is -trace 1")
		isSmoke = fs.Bool("smoke", false, "tiny sizes (n = 2^12, 2 slices of 0.2 s, 1 rebuild): checks the harness, measures nothing")
		aa      = fs.Int("aa", 0, "run two interleaved sets of this many runs per workload and compare them against BENCHMARK.json's bounds")
	)
	fs.Parse(os.Args[1:])
	switch *mode {
	case "", "e2e":
	case "layers":
		*trace = 1
	default:
		fatal(fmt.Errorf("unknown -mode %q (e2e | layers)", *mode))
	}
	if *aa > 0 {
		ok, err := runAA(*aa, *name, *seed, *seconds, *isSmoke, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(scratchRoot, "stores-")
	if err != nil {
		fatal(err)
	}
	correct, err := run(options{
		workload: *name, seed: *seed, seconds: *seconds, layers: *trace != 0, smoke: *isSmoke, dir: dir,
	}, os.Stdout)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	layers   bool
	smoke    bool
	dir      string // store files are written here
	faults   faults
}

// faults are deliberate breakages the tests inject to prove the oracle and
// the failure accounting bite. No flag sets them.
type faults struct {
	flipWant bool                  // corrupt the oracle's answer for the ring's last pair
	wrap     func(querier) querier // interpose on every connection's client
}
