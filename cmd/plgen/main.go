// Command plgen generates graphs in the repository's edge-list format.
//
// Usage:
//
//	plgen -model chunglu -n 10000 -alpha 2.5 [-seed N] [-o out.el]
//	plgen -model ba -n 10000 -m 3
//	plgen -model config -n 10000 -alpha 2.5
//	plgen -model er -n 10000 -p 0.001
//	plgen -model waxman -n 2000 -beta 0.4 -gamma 0.15
//	plgen -model lognormal -n 10000 -mu 1.0 -sigma 1.1
//	plgen -model hierarchical -n 4096
//	plgen -model pl -n 10000 -alpha 2.5        (Section 5 P_l construction)
//
// The chunglu, er, config and lognormal models sample, build and write with
// GOMAXPROCS goroutines; output is deterministic for a fixed seed at every
// GOMAXPROCS. Output goes to stdout unless -o is given.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/powerlaw"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "plgen: %v\n", err)
		os.Exit(1)
	}
}

// phases carries the per-phase wall times of one generation run. Sample is
// the edge-sampling pass, build the CSR construction; models without a
// split pipeline report everything under sample with build = 0.
type phases struct {
	sample time.Duration
	build  time.Duration
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("plgen", flag.ContinueOnError)
	var (
		model = fs.String("model", "chunglu", "chunglu | ba | config | er | waxman | lognormal | hierarchical | pl | tree")
		n     = fs.Int("n", 10000, "number of vertices")
		alpha = fs.Float64("alpha", 2.5, "power-law exponent (chunglu, config, pl)")
		wmin  = fs.Float64("wmin", 2, "minimum expected degree (chunglu)")
		m     = fs.Int("m", 3, "attachment parameter (ba)")
		p     = fs.Float64("p", 0.001, "edge probability (er)")
		beta  = fs.Float64("beta", 0.4, "Waxman beta")
		gamma = fs.Float64("gamma", 0.15, "Waxman gamma")
		mu    = fs.Float64("mu", 1.0, "lognormal log-mean")
		sigma = fs.Float64("sigma", 1.1, "lognormal log-stddev")
		seed  = fs.Int64("seed", 1, "generator seed")
		out   = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, ph, err := generate(*model, *n, *alpha, *wmin, *m, *p, *beta, *gamma, *mu, *sigma, *seed)
	if err != nil {
		return err
	}
	w := stdout
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		w = f
	}
	writeStart := time.Now()
	werr := g.WriteEdgeListParallel(w, 0)
	// Close exactly once, whether or not the write failed, and surface the
	// Close error (a full disk often only reports at close time).
	if f != nil {
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
	}
	if werr != nil {
		return werr
	}
	writeTime := time.Since(writeStart)
	eps := func(d time.Duration) float64 { return float64(g.M()) / max(d.Seconds(), 1e-9) }
	fmt.Fprintf(os.Stderr, "plgen: %s graph, n=%d m=%d maxdeg=%d GOMAXPROCS=%d\n",
		*model, g.N(), g.M(), g.MaxDegree(), runtime.GOMAXPROCS(0))
	if ph.build > 0 {
		fmt.Fprintf(os.Stderr, "plgen: sample %.3fs (%.0f edges/s), build %.3fs (%.0f edges/s), write %.3fs (%.0f edges/s)\n",
			ph.sample.Seconds(), eps(ph.sample), ph.build.Seconds(), eps(ph.build),
			writeTime.Seconds(), eps(writeTime))
	} else {
		fmt.Fprintf(os.Stderr, "plgen: generate %.3fs (%.0f edges/s), write %.3fs (%.0f edges/s)\n",
			ph.sample.Seconds(), eps(ph.sample), writeTime.Seconds(), eps(writeTime))
	}
	return nil
}

// buildPhased runs the sampled EdgeBuilder through its parallel CSR build,
// timing the two phases separately.
func buildPhased(sampleStart time.Time, eb *graph.EdgeBuilder) (*graph.Graph, phases, error) {
	sample := time.Since(sampleStart)
	buildStart := time.Now()
	g := eb.Build(0)
	return g, phases{sample: sample, build: time.Since(buildStart)}, nil
}

// generate samples the model's graph; the parallel samplers and the CSR build
// run over GOMAXPROCS goroutines (worker count 0).
func generate(model string, n int, alpha, wmin float64, m int, p, beta, gamma, mu, sigma float64, seed int64) (*graph.Graph, phases, error) {
	start := time.Now()
	whole := func(g *graph.Graph, err error) (*graph.Graph, phases, error) {
		return g, phases{sample: time.Since(start)}, err
	}
	switch model {
	case "chunglu":
		w, err := gen.PowerLawWeights(n, alpha, wmin)
		if err != nil {
			return nil, phases{}, err
		}
		return buildPhased(start, gen.ChungLuParallelEdges(w, seed, 0))
	case "lognormal":
		w, err := gen.LogNormalWeights(n, mu, sigma, seed)
		if err != nil {
			return nil, phases{}, err
		}
		return buildPhased(start, gen.ChungLuParallelEdges(w, seed+1, 0))
	case "er":
		if p <= 0 || p >= 1 || n < 2 {
			return whole(gen.ErdosRenyiParallel(n, p, seed, 0), nil)
		}
		return buildPhased(start, gen.ErdosRenyiParallelEdges(n, p, seed, 0))
	case "config":
		kmax := n - 1
		if kmax < 1 {
			kmax = 1
		}
		deg, err := gen.PowerLawDegreeSequence(n, alpha, kmax, seed)
		if err != nil {
			return nil, phases{}, err
		}
		eb, err := gen.ConfigurationModelEdges(deg, seed+1, 0)
		if err != nil {
			return nil, phases{}, err
		}
		return buildPhased(start, eb)
	case "ba":
		return whole(gen.BarabasiAlbert(n, m, seed))
	case "waxman":
		return whole(gen.Waxman(n, beta, gamma, seed))
	case "tree":
		return whole(gen.RandomTree(n, seed), nil)
	case "hierarchical":
		// 3 levels, fanout 4: leafSize chosen so the total is close to n.
		leaf := n / 16
		if leaf < 2 {
			leaf = 2
		}
		return whole(gen.Hierarchical(3, 4, leaf, 0.2, seed))
	case "pl":
		params, err := powerlaw.NewParams(alpha, n)
		if err != nil {
			return nil, phases{}, err
		}
		h := gen.ErdosRenyi(params.I1, 0.5, seed)
		emb, err := gen.PlEmbed(params, h)
		if err != nil {
			return nil, phases{}, err
		}
		return whole(emb.G, nil)
	default:
		return nil, phases{}, fmt.Errorf("unknown model %q", model)
	}
}
