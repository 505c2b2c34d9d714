package core_test

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/powerlaw"
	"repro/internal/schemes/baseline"
	"repro/internal/schemes/forest"
	"repro/internal/schemes/onequery"
)

// Example is the whole flow: generate a power-law graph, check it is in the
// paper's family P_h, give every vertex a short label, and decide adjacency
// from two labels with a decoder that knows only n — the graph is never
// consulted.
func Example() {
	// A synthetic social-network-like graph: 10k vertices whose expected
	// degrees follow a power law with exponent α = 2.5.
	const (
		n     = 10000
		alpha = 2.5
	)
	g, err := gen.ChungLuPowerLaw(n, alpha, 2, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d maxdeg=%d\n", g.N(), g.M(), g.MaxDegree())

	// The graph really is in the upper-bound family P_h, so Theorem 4's
	// guarantee applies.
	p, err := powerlaw.NewParams(alpha, n)
	if err != nil {
		log.Fatal(err)
	}
	rep := powerlaw.CheckPh(g, p, 1)
	fmt.Printf("P_h member: %v (worst tail ratio %.2f at degree %d)\n",
		rep.Member, rep.WorstRatio, rep.WorstK)

	labeling, err := core.NewPowerLawScheme(alpha).Encode(g)
	if err != nil {
		log.Fatal(err)
	}
	st := labeling.Stats()
	bound, err := core.PowerLawTheoremBound(alpha, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("labels: max=%d bits, mean=%.1f bits\n", st.Max, st.Mean)
	fmt.Printf("Theorem 4 real-valued bound: %d bits (implementations use ceil(log2 n)-bit\n"+
		"identifiers, so the realized max may exceed it by up to τ+log n bits of rounding)\n", bound)

	u, v := 0, 1
	la, err := labeling.Label(u)
	if err != nil {
		log.Fatal(err)
	}
	lb, err := labeling.Label(v)
	if err != nil {
		log.Fatal(err)
	}
	dec := core.NewFatThinDecoder(n) // rebuilt from n alone
	adj, err := dec.Adjacent(la, lb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adjacent(%d,%d) decoded from labels: %v (graph says %v)\n", u, v, adj, g.HasEdge(u, v))

	// Every edge and a large non-edge sample decode correctly.
	if err := labeling.Verify(g); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Println("verification: ok")
	// Output:
	// graph: n=10000 m=28150 maxdeg=262
	// P_h member: true (worst tail ratio 0.04 at degree 5)
	// labels: max=211 bits, mean=54.2 bits
	// Theorem 4 real-valued bound: 1191 bits (implementations use ceil(log2 n)-bit
	// identifiers, so the realized max may exceed it by up to τ+log n bits of rounding)
	// adjacent(0,1) decoded from labels: true (graph says true)
	// verification: ok
}

// Example_socialGraph is the workload the paper's introduction motivates: a
// social network whose degree distribution follows a power law. It fits the
// exponent from the data (α is never handed to a practitioner), predicts the
// fat/thin threshold from the fitted curve — the paper's "threshold
// prediction depends only on the coefficient α of a power-law curve fitted to
// the degree distribution" — and compares every adjacency scheme's labels on
// the one graph.
func Example_socialGraph() {
	const n = 8000
	g, err := gen.ChungLuPowerLaw(n, 2.3, 2, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social graph: n=%d friendships=%d, most-connected member has %d friends\n",
		g.N(), g.M(), g.MaxDegree())

	fit, err := powerlaw.FitAlpha(g.Degrees())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted degree distribution: α=%.2f (xmin=%d, KS=%.3f)\n", fit.Alpha, fit.Xmin, fit.KS)

	auto := core.NewPowerLawSchemeAuto()
	tau, err := auto.Threshold(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted fat/thin threshold: %d (members with ≥%d friends are \"fat\")\n\n", tau, tau)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tmax bits\tmean bits\ttotal KiB")
	row := func(name string, st core.SizeStats) {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\n", name, st.Max, st.Mean, float64(st.Total)/8/1024)
	}
	for _, s := range []core.Scheme{
		auto,
		core.NewSparseSchemeAuto(),
		forest.Scheme{},
		baseline.NeighborList{},
		baseline.AdjMatrix{},
	} {
		lab, err := s.Encode(g)
		if err != nil {
			log.Fatalf("%s: %v", s.Name(), err)
		}
		if err := lab.Verify(g); err != nil {
			log.Fatalf("%s: %v", s.Name(), err)
		}
		row(s.Name(), lab.Stats())
	}
	oq, err := (onequery.Scheme{Seed: 7}).Encode(g)
	if err != nil {
		log.Fatal(err)
	}
	if err := oq.Verify(g); err != nil {
		log.Fatal(err)
	}
	row("onequery (1 extra fetch)", oq.Stats())
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nall schemes verified against the graph; the power-law scheme keeps")
	fmt.Println("worst-case labels near n^(1/α) bits while the matrix baseline needs ~n bits")
	// Output:
	// social graph: n=8000 friendships=28320, most-connected member has 264 friends
	// fitted degree distribution: α=2.36 (xmin=6, KS=0.011)
	// predicted fat/thin threshold: 26 (members with ≥26 friends are "fat")
	//
	// scheme                    max bits  mean bits  total KiB
	// powerlaw(auto)            322       66.1       64.5
	// sparse(auto)              261       59.0       57.6
	// forest-decomp             247       247.0      241.2
	// nbrlist                   3446      106.0      103.6
	// adjmatrix                 8012      4012.5     3918.5
	// onequery (1 extra fetch)  247       105.0      102.6
	//
	// all schemes verified against the graph; the power-law scheme keeps
	// worst-case labels near n^(1/α) bits while the matrix baseline needs ~n bits
}

// ExampleNewFixedThresholdScheme shows manual control over the fat/thin
// threshold, as used by the sweep experiments.
func ExampleNewFixedThresholdScheme() {
	g := gen.Star(64) // one hub, 63 leaves
	lab, err := core.NewFixedThresholdScheme(10).Encode(g)
	if err != nil {
		log.Fatal(err)
	}
	st := lab.Stats()
	// The hub (degree 63 ≥ 10) is fat: its label is 1 + log n + k = 1+6+1
	// bits. Leaves are thin with a single neighbor id: 1 + 6 + 6 bits.
	fmt.Println(st.Max, st.Min)
	// Output: 13 8
}

// ExampleFatThinScheme_Threshold shows the threshold a scheme would pick.
func ExampleFatThinScheme_Threshold() {
	g, err := gen.ChungLuPowerLaw(10000, 2.5, 2, 7)
	if err != nil {
		log.Fatal(err)
	}
	tau, err := core.NewPowerLawSchemePractical(2.5).Threshold(g)
	if err != nil {
		log.Fatal(err)
	}
	// ceil((10000 / log2 10000)^(1/2.5))
	fmt.Println(tau)
	// Output: 15
}
