package peernet_test

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/peernet"
	"repro/internal/schemes/onequery"
)

// Example is the peer-to-peer scenario from the paper's introduction:
// "disseminate the structural information of the graph to its vertices and
// store it locally". The graph is labeled once, centrally; then every peer
// holds only its own label, and a coordinator answers adjacency by fetching
// two labels (fat/thin) or three (Section 6's 1-query scheme, whose labels
// are shorter). No peer and no coordinator ever holds the graph.
func Example() {
	const n = 5000
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, 11)
	if err != nil {
		log.Fatal(err)
	}
	lab, err := core.NewPowerLawSchemeAuto().Encode(g)
	if err != nil {
		log.Fatal(err)
	}
	oq, err := (onequery.Scheme{Seed: 11}).Encode(g)
	if err != nil {
		log.Fatal(err)
	}
	labels, err := peernet.LabelsOf(lab)
	if err != nil {
		log.Fatal(err)
	}
	oqLabels, err := peernet.LabelsOf(oq.Labeling)
	if err != nil {
		log.Fatal(err)
	}
	two := &peernet.TwoLabelService{Net: peernet.New(labels), Dec: core.NewFatThinDecoder(n)}
	one := &peernet.OneQueryService{Net: peernet.New(oqLabels), Dec: oq.Dec}
	fmt.Printf("fleet: %d peers, each holding only its own label (max %d bits)\n", n, lab.Stats().Max)

	rng := rand.New(rand.NewSource(5))
	const queries = 2000
	mismatches := 0
	for i := 0; i < queries; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		got, err := two.Adjacent(u, v)
		if err != nil {
			log.Fatal(err)
		}
		got1q, err := one.Adjacent(u, v)
		if err != nil {
			log.Fatal(err)
		}
		if want := g.HasEdge(u, v); got != want || got1q != want {
			mismatches++
		}
	}
	fmt.Printf("resolved %d adjacency queries peer-to-peer: %d mismatches\n", queries, mismatches)
	fmt.Printf("1-query labels are %d bits max vs %d for 2-label scheme (cost: one extra fetch per query)\n",
		oq.Stats().Max, lab.Stats().Max)
	fmt.Printf("label fetches: %d for 2-label, %d for 1-query\n",
		two.Net.Stats().Fetches, one.Net.Stats().Fetches)
	// Output:
	// fleet: 5000 peers, each holding only its own label (max 190 bits)
	// resolved 2000 adjacency queries peer-to-peer: 0 mismatches
	// 1-query labels are 169 bits max vs 190 for 2-label scheme (cost: one extra fetch per query)
	// label fetches: 4000 for 2-label, 6000 for 1-query
}
