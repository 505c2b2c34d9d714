package core

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

func TestCompressedCorrectness(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, inner := range []*FatThinScheme{
			NewSparseScheme(2),
			NewPowerLawScheme(2.5),
			NewFixedThresholdScheme(3),
			NewFixedThresholdScheme(1 << 20),
		} {
			s := NewCompressedScheme(inner)
			lab, err := s.Encode(g)
			if err != nil {
				t.Fatalf("%s / %s: %v", name, s.Name(), err)
			}
			if err := lab.Verify(g); err != nil {
				t.Errorf("%s / %s: %v", name, s.Name(), err)
			}
		}
	}
}

func TestCompressedDecoderStandalone(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(400, 2.5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewCompressedScheme(NewPowerLawScheme(2.5)).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewCompressedDecoder(g.N())
	for u := 0; u < 50; u++ {
		for v := u + 1; v < 50; v++ {
			lu, err := lab.Label(u)
			if err != nil {
				t.Fatal(err)
			}
			lv, err := lab.Label(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Adjacent(lu, lv)
			if err != nil {
				t.Fatal(err)
			}
			if got != g.HasEdge(u, v) {
				t.Fatalf("standalone compressed decoder wrong at (%d,%d)", u, v)
			}
		}
	}
}

func TestCompressedNeverMuchWorse(t *testing.T) {
	// The adaptive flag guarantees every thin label is within 1 bit of the
	// fixed-width layout (fat labels are identical).
	g, err := gen.ChungLuPowerLaw(5000, 2.5, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewPowerLawSchemeAuto()
	inner.SetThinEdges(ThinEdgesBoth) // the lists the compressed scheme codes
	plain, err := inner.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompressedScheme(inner).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Stats().Max > plain.Stats().Max+1 {
		t.Errorf("compressed max %d > plain max %d + 1", comp.Stats().Max, plain.Stats().Max)
	}
	if comp.Stats().Total > plain.Stats().Total+int64(g.N()) {
		t.Errorf("compressed total %d > plain total %d + n", comp.Stats().Total, plain.Stats().Total)
	}
}

func TestCompressedWinsOnHeavyHubs(t *testing.T) {
	// On a hub-dominated graph (α close to 2 → thin neighbors concentrate
	// on the few smallest ids) gap coding must deliver real savings.
	g, err := gen.ChungLuPowerLaw(8000, 2.05, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewPowerLawSchemeAuto()
	inner.SetThinEdges(ThinEdgesBoth) // the lists the compressed scheme codes
	plain, err := inner.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompressedScheme(inner).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Stats().Total >= plain.Stats().Total {
		t.Errorf("compressed total %d >= plain total %d on hub-heavy graph",
			comp.Stats().Total, plain.Stats().Total)
	}
}

func TestCompressedThresholdPassthrough(t *testing.T) {
	g := gen.Star(100)
	inner := NewFixedThresholdScheme(7)
	s := NewCompressedScheme(inner)
	tau, err := s.Threshold(g)
	if err != nil {
		t.Fatal(err)
	}
	if tau != 7 {
		t.Errorf("Threshold = %d, want 7", tau)
	}
	if _, err := NewCompressedScheme(NewFixedThresholdScheme(0)).Encode(g); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestQuickCompressedAgreesWithPlain(t *testing.T) {
	f := func(seed int64, tauRaw uint8) bool {
		g := gen.ErdosRenyi(30, 0.2, seed)
		tau := int(tauRaw)%10 + 1
		plain, err := NewFixedThresholdScheme(tau).Encode(g)
		if err != nil {
			return false
		}
		comp, err := NewCompressedScheme(NewFixedThresholdScheme(tau)).Encode(g)
		if err != nil {
			return false
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				a, err := plain.Adjacent(u, v)
				if err != nil {
					return false
				}
				b, err := comp.Adjacent(u, v)
				if err != nil {
					return false
				}
				if a != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
