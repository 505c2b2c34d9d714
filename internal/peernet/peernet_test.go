package peernet

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/onequery"
)

func TestFetchAccounting(t *testing.T) {
	g := gen.Path(4)
	lab, err := core.NewSparseScheme(1).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := LabelsOf(lab)
	if err != nil {
		t.Fatal(err)
	}
	net := New(labels)
	if net.N() != 4 {
		t.Fatalf("N = %d", net.N())
	}
	l, err := net.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.Fetches != 1 || st.Messages != 2 {
		t.Errorf("stats = %+v", st)
	}
	wantBytes := int64(requestBytes + responseOverheadBytes + l.SizeBytes())
	if st.Bytes != wantBytes {
		t.Errorf("Bytes = %d, want %d", st.Bytes, wantBytes)
	}
	net.ResetStats()
	if net.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestFetchUnknownPeer(t *testing.T) {
	net := New(nil)
	if _, err := net.Fetch(0); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("err = %v", err)
	}
	if _, err := net.Fetch(-1); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("err = %v", err)
	}
}

func TestTwoLabelServiceCorrect(t *testing.T) {
	g := gen.ErdosRenyi(60, 0.12, 3)
	lab, err := core.NewSparseSchemeAuto().Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := LabelsOf(lab)
	if err != nil {
		t.Fatal(err)
	}
	net := New(labels)
	svc := &TwoLabelService{Net: net, Dec: core.NewFatThinDecoder(g.N())}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			got, err := svc.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != g.HasEdge(u, v) {
				t.Fatalf("(%d,%d) wrong over the network", u, v)
			}
		}
	}
	// Exactly two fetches per query.
	queries := int64(g.N() * (g.N() - 1) / 2)
	if st := net.Stats(); st.Fetches != 2*queries {
		t.Errorf("Fetches = %d, want %d", st.Fetches, 2*queries)
	}
}

func TestOneQueryServiceCorrectAndBounded(t *testing.T) {
	g := gen.ErdosRenyi(50, 0.15, 5)
	enc, err := (onequery.Scheme{Seed: 5}).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := LabelsOf(enc.Labeling)
	if err != nil {
		t.Fatal(err)
	}
	net := New(labels)
	svc := &OneQueryService{Net: net, Dec: enc.Dec}
	queries := 0
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			got, err := svc.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != g.HasEdge(u, v) {
				t.Fatalf("(%d,%d) wrong over the network", u, v)
			}
			queries++
		}
	}
	st := net.Stats()
	if st.Fetches != int64(3*queries) {
		t.Errorf("Fetches = %d, want exactly 3 per query (%d)", st.Fetches, 3*queries)
	}
}

func TestOneQueryMovesFewerBytesOnHubGraphs(t *testing.T) {
	// The E16 claim in miniature: on a power-law graph large enough for
	// fat/thin labels to grow, the 1-query protocol's three tiny labels
	// move fewer bytes than the 2-label protocol's two big ones — for
	// queries touching fat vertices.
	g, err := gen.ChungLuPowerLaw(20000, 2.3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	twoLab, err := core.NewPowerLawSchemeAuto().Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	twoLabels, err := LabelsOf(twoLab)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := (onequery.Scheme{Seed: 7}).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	oneLabels, err := LabelsOf(enc.Labeling)
	if err != nil {
		t.Fatal(err)
	}

	twoNet := New(twoLabels)
	oneNet := New(oneLabels)
	twoSvc := &TwoLabelService{Net: twoNet, Dec: core.NewFatThinDecoder(g.N())}
	oneSvc := &OneQueryService{Net: oneNet, Dec: enc.Dec}

	// Query the hub (vertex ids don't order by degree; find the max-degree
	// vertex) against a spread of partners.
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	for v := 0; v < g.N(); v += 100 {
		if v == hub {
			continue
		}
		a, err := twoSvc.Adjacent(hub, v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := oneSvc.Adjacent(hub, v)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("services disagree at (%d,%d)", hub, v)
		}
	}
	if oneNet.Stats().Bytes >= twoNet.Stats().Bytes {
		t.Errorf("1-query moved %d bytes, 2-label moved %d — expected 1-query to win on hub queries",
			oneNet.Stats().Bytes, twoNet.Stats().Bytes)
	}
}

// TestConcurrentFetchStats hammers one network from many goroutines and
// checks the counters land on exact totals — under -race this also proves
// Fetch/Stats/ResetStats are data-race free (many coordinators over one
// shared network).
func TestConcurrentFetchStats(t *testing.T) {
	g := gen.ErdosRenyi(32, 0.2, 9)
	lab, err := core.NewSparseScheme(1).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := LabelsOf(lab)
	if err != nil {
		t.Fatal(err)
	}
	net := New(labels)
	const (
		goroutines = 8
		perG       = 500
	)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				if _, err := net.Fetch((i + j) % net.N()); err != nil {
					errs[i] = err
					return
				}
				_ = net.Stats() // concurrent reader of the counters
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := net.Stats()
	const total = goroutines * perG
	if st.Fetches != total || st.Messages != 2*total {
		t.Errorf("stats = %+v, want %d fetches", st, total)
	}
	// Replay the deterministic fetch sequence to get the exact byte total.
	var want int64
	for i := 0; i < goroutines; i++ {
		for j := 0; j < perG; j++ {
			v := (i + j) % net.N()
			want += requestBytes + responseOverheadBytes + int64(labels[v].SizeBytes())
		}
	}
	if st.Bytes != want {
		t.Errorf("Bytes = %d, want %d", st.Bytes, want)
	}
	net.ResetStats()
	if net.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}
