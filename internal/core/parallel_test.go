package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestEncodeParallelDegenerate(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Empty(0), graph.Empty(1), gen.Path(2)} {
		lab, err := NewSparseScheme(1).EncodeParallel(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := lab.Verify(g); err != nil {
			t.Error(err)
		}
	}
}

func TestEncodeParallelErrorPropagates(t *testing.T) {
	if _, err := NewFixedThresholdScheme(0).EncodeParallel(gen.Path(4), 2); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestPracticalThreshold(t *testing.T) {
	s := NewPowerLawSchemePractical(2.5)
	g, err := gen.ChungLuPowerLaw(1000, 2.5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tau, err := s.Threshold(g)
	if err != nil {
		t.Fatal(err)
	}
	// (1000/log2(1000))^(1/2.5) ≈ 5.99 → 6.
	if tau < 5 || tau > 8 {
		t.Errorf("practical threshold = %d, expected ≈ 6", tau)
	}
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Verify(g); err != nil {
		t.Error(err)
	}
	if _, err := NewPowerLawSchemePractical(0.5).Threshold(g); err == nil {
		t.Error("alpha <= 1 accepted")
	}
}

func TestModelScheme(t *testing.T) {
	c, err := ZetaTailCoefficient(2.5)
	if err != nil {
		t.Fatal(err)
	}
	// c = 1/(ζ(2.5)·1.5) ≈ 0.4969.
	if c < 0.45 || c < 0 || c > 0.55 {
		t.Errorf("ZetaTailCoefficient(2.5) = %v", c)
	}
	if _, err := ZetaTailCoefficient(1.0); err == nil {
		t.Error("alpha=1 accepted")
	}
	g, err := gen.PowerLawConfiguration(2000, 2.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewPowerLawSchemeModel(2.5, c)
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Verify(g); err != nil {
		t.Error(err)
	}
}

func TestFitTailConstant(t *testing.T) {
	// On an ideal zeta-degree graph the fitted tail coefficient should land
	// near the analytic value 1/(ζ(α)(α-1)).
	alpha := 2.5
	g, err := gen.PowerLawConfiguration(20000, alpha, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ZetaTailCoefficient(alpha)
	if err != nil {
		t.Fatal(err)
	}
	got := FitTailConstant(g, alpha)
	if got < want/3 || got > want*3 {
		t.Errorf("FitTailConstant = %.3f, analytic %.3f (off by >3x)", got, want)
	}
	// Degenerate inputs return the safe default.
	if FitTailConstant(graph.Empty(0), alpha) != 1 {
		t.Error("empty graph should return 1")
	}
	if FitTailConstant(graph.Empty(10), alpha) != 1 {
		t.Error("edgeless graph should return 1")
	}
}
