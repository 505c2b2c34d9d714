package dynamic_test

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/schemes/dynamic"
)

// Example maintains labels through inserts, a deletion and a vertex
// removal; every query is answered from the current labels.
func Example() {
	s, err := dynamic.New(2.5, 8)
	if err != nil {
		log.Fatal(err)
	}
	a, b, c := s.AddVertex(), s.AddVertex(), s.AddVertex()
	if err := s.AddEdge(a, b); err != nil {
		log.Fatal(err)
	}
	if err := s.AddEdge(b, c); err != nil {
		log.Fatal(err)
	}
	ab, _ := s.Adjacent(a, b)
	ac, _ := s.Adjacent(a, c)
	fmt.Println(ab, ac)

	if err := s.RemoveEdge(a, b); err != nil {
		log.Fatal(err)
	}
	ab, _ = s.Adjacent(a, b)
	fmt.Println(ab)

	if err := s.RemoveVertex(c); err != nil {
		log.Fatal(err)
	}
	_, err = s.Adjacent(b, c)
	fmt.Println(err != nil) // queries on removed vertices fail
	// Output:
	// true false
	// false
	// true
}

// Example_network is the paper's future-work scenario: a network that keeps
// changing after labels are assigned. A preferential-attachment network grows
// live through the scheme, links appear and disappear, and every query still
// answers from the current labels while the scheme reports the communication
// cost the paper asks to account for: how many labels were rewritten and how
// many bits moved.
func Example_network() {
	s, err := dynamic.New(3.0, 4) // BA-grown networks have α = 3
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2016))

	// Growth: preferential attachment, 2 links per joining node, run
	// against the dynamic scheme itself (no offline graph).
	const n = 4000
	var endpoints []int // one entry per edge endpoint: a degree-weighted urn
	for i := 0; i < n; i++ {
		v := s.AddVertex()
		for links := 0; links < 2 && links < v; links++ {
			var target int
			for {
				if len(endpoints) == 0 {
					target = rng.Intn(v)
				} else {
					target = endpoints[rng.Intn(len(endpoints))]
				}
				if target != v {
					if ok, err := s.Adjacent(v, target); err == nil && !ok {
						break
					}
				}
			}
			if err := s.AddEdge(v, target); err != nil {
				log.Fatal(err)
			}
			endpoints = append(endpoints, v, target)
		}
	}
	st := s.Stats()
	fmt.Printf("grew to n=%d m=%d through the dynamic scheme\n", s.N(), s.M())
	fmt.Printf("growth cost: %.2f relabels/update, %.0f bits rewritten/update, %d promotions, %d rebuilds\n",
		float64(st.Relabels)/float64(st.Updates), float64(st.BitsRewritten)/float64(st.Updates),
		st.Promotions, st.Rebuilds)

	// Churn: random links break and new ones form.
	type edge struct{ u, v int }
	var live []edge
	s.Snapshot().Edges(func(u, v int) { live = append(live, edge{u, v}) })
	before := s.Stats()
	for i := 0; i < 2000; i++ {
		if i%2 == 0 && len(live) > 0 {
			k := rng.Intn(len(live))
			e := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := s.RemoveEdge(e.u, e.v); err != nil {
				log.Fatal(err)
			}
			continue
		}
		u, v := rng.Intn(s.N()), rng.Intn(s.N())
		if u == v {
			continue
		}
		if ok, err := s.Adjacent(u, v); err != nil || ok {
			continue
		}
		if err := s.AddEdge(u, v); err != nil {
			log.Fatal(err)
		}
		live = append(live, edge{u, v})
	}
	after := s.Stats()
	churn := after.Updates - before.Updates
	fmt.Printf("churn: %d updates at %.2f relabels/update\n",
		churn, float64(after.Relabels-before.Relabels)/float64(churn))

	// The final labels answer every sampled query as the current topology
	// does.
	truth := s.Snapshot()
	wrong := 0
	const checked = 20000
	for i := 0; i < checked; i++ {
		u, v := rng.Intn(s.N()), rng.Intn(s.N())
		got, err := s.Adjacent(u, v)
		if err != nil {
			log.Fatal(err)
		}
		if got != truth.HasEdge(u, v) {
			wrong++
		}
	}
	fmt.Printf("post-churn verification: %d queries, %d wrong\n", checked, wrong)
	fmt.Printf("current max label: %d bits (threshold τ=%d)\n", s.MaxLabelBits(), s.Threshold())
	if wrong > 0 {
		log.Fatalf("%d incorrect answers", wrong)
	}
	fmt.Println("the network changed ~14k times and every query still decodes from labels alone")
	// Output:
	// grew to n=4000 m=7997 through the dynamic scheme
	// growth cost: 2.04 relabels/update, 112 bits rewritten/update, 858 promotions, 14 rebuilds
	// churn: 1996 updates at 3.63 relabels/update
	// post-churn verification: 20000 queries, 0 wrong
	// current max label: 484 bits (threshold τ=7)
	// the network changed ~14k times and every query still decodes from labels alone
}
