// Command plbench regenerates the experiment tables of the paper's
// evaluation (see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured discussion).
//
// Usage:
//
//	plbench [-experiment E1] [-quick] [-seed N] [-list]
//
// With no -experiment flag every experiment runs in index order.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("plbench", flag.ContinueOnError)
	var (
		experiment   = fs.String("experiment", "", "experiment ID to run (e.g. E1); empty runs all")
		quick        = fs.Bool("quick", false, "reduced graph sizes (seconds instead of minutes)")
		seed         = fs.Int64("seed", 20160711, "generator seed")
		list         = fs.Bool("list", false, "list experiments and exit")
		format       = fs.String("format", "table", "output format: table | csv")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprofile = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		blockprofile = fs.String("blockprofile", "", "write a blocking profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every profile is flushed and closed through a defer, so an error exit
	// (unknown experiment, failed run, bad format) still leaves valid profile
	// files behind — exactly the runs worth profiling are often the ones that
	// fail partway.
	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC() // settle live-heap numbers before the snapshot
			writeProfile("heap", *memprofile)
		}()
	}
	// Contention profiles must be armed before the workload starts; each is
	// written on exit like -memprofile. Useful against E20's parallel encoder,
	// whose time off-CPU is spent waiting on its fill shards.
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexprofile)
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockprofile)
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Description)
		}
		return nil
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	runners := experiments.All()
	if *experiment != "" {
		r, ok := experiments.ByID(*experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *experiment)
		}
		runners = []experiments.Runner{r}
	}
	render := func(t *experiments.Table) error { return t.Render(os.Stdout) }
	switch *format {
	case "table":
	case "csv":
		render = func(t *experiments.Table) error { return t.RenderCSV(os.Stdout) }
	default:
		return fmt.Errorf("unknown format %q (table | csv)", *format)
	}
	for _, r := range runners {
		start := time.Now()
		tables, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		for _, t := range tables {
			if err := render(t); err != nil {
				return err
			}
		}
		if *format == "table" {
			fmt.Printf("[%s completed in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// startCPUProfile begins CPU profiling into path and returns the stop
// function to defer: it stops the profiler (flushing the final sample batch)
// and closes the file, surfacing close errors — the write that loses data on
// a full disk is the one in Close.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "plbench: cpuprofile: %v\n", err)
		}
	}, nil
}

// writeProfile snapshots a named runtime profile (heap, mutex, block) to
// path, reporting write and close failures rather than silently truncating.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plbench: %sprofile: %v\n", name, err)
		return
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "plbench: %sprofile: %v\n", name, err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "plbench: %sprofile: %v\n", name, err)
	}
}
