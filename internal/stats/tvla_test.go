package stats

import (
	"math"
	"math/rand"
	"testing"
)

func gaussianSample(rng *rand.Rand, n int, mean, std float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + rng.NormFloat64()*std
	}
	return out
}

func TestWelchTSamePopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := gaussianSample(rng, 200, 5, 1)
	b := gaussianSample(rng, 200, 5, 1)
	tt, dof := WelchT(a, b)
	if math.Abs(tt) > 3 {
		t.Fatalf("same-population t = %g", tt)
	}
	if dof < 100 {
		t.Fatalf("dof = %g", dof)
	}
}

func TestWelchTSeparatedPopulations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := gaussianSample(rng, 100, 0, 1)
	b := gaussianSample(rng, 100, 1.5, 1)
	tt, _ := WelchT(a, b)
	if tt > -4.5 { // a below b: negative t, past the TVLA criterion
		t.Fatalf("separated populations t = %g, want < -4.5", tt)
	}
}

func TestWelchTKnownValue(t *testing.T) {
	// Hand-computed case: a = {1,2,3}, b = {5,6,7}: means 2 and 6, each
	// variance 1, t = (2-6)/sqrt(1/3+1/3) = -4.898979, dof = 4.
	a := []float64{1, 2, 3}
	b := []float64{5, 6, 7}
	tt, dof := WelchT(a, b)
	if math.Abs(tt+4.898979485566356) > 1e-9 {
		t.Fatalf("t = %.9f", tt)
	}
	if math.Abs(dof-4) > 1e-9 {
		t.Fatalf("dof = %g", dof)
	}
}

func TestWelchTDegenerate(t *testing.T) {
	if tt, dof := WelchT([]float64{1}, []float64{1, 2}); tt != 0 || dof != 0 {
		t.Fatal("tiny samples must give 0")
	}
	// Identical constant populations: t = 0.
	if tt, _ := WelchT([]float64{2, 2, 2}, []float64{2, 2, 2}); tt != 0 {
		t.Fatalf("constant equal populations t = %g", tt)
	}
	// Constant but different: infinite separation.
	tt, _ := WelchT([]float64{3, 3, 3}, []float64{2, 2, 2})
	if !math.IsInf(tt, 1) {
		t.Fatalf("constant different populations t = %g, want +Inf", tt)
	}
}
