package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ExplainedVarianceRatio returns the fraction of total variance captured by
// the kept components.
func (p *PCA) ExplainedVarianceRatio() float64 {
	if p.TotalVar == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range p.Variances {
		sum += v
	}
	return sum / p.TotalVar
}

// Project maps an observation x (length d) to the k-dimensional principal
// subspace.
func (p *PCA) Project(x []float64) []float64 {
	return p.ProjectInto(make([]float64, p.K()), x)
}

// Reconstruct maps a score vector back into the original space:
// mean + scores * components.
func (p *PCA) Reconstruct(scores []float64) []float64 {
	return p.ReconstructInto(make([]float64, len(p.Mean)), scores)
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestJacobiDiagonal(t *testing.T) {
	// A diagonal matrix must come back unchanged with identity vectors.
	m := NewMatrix(3, 3)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	m.Set(2, 2, 2)
	vals, vecs := Jacobi(m, 0)
	want := []float64{3, 1, 2}
	for i, v := range vals {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Fatalf("eigenvalue %d = %g, want %g", i, v, want[i])
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			expect := 0.0
			if i == j {
				expect = 1
			}
			if math.Abs(vecs.At(i, j)-expect) > 1e-12 {
				t.Fatal("eigenvectors of a diagonal matrix must be identity")
			}
		}
	}
}

func TestJacobiKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	vals, _ := Jacobi(m, 0)
	lo, hi := math.Min(vals[0], vals[1]), math.Max(vals[0], vals[1])
	if math.Abs(lo-1) > 1e-10 || math.Abs(hi-3) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want {1,3}", vals)
	}
}

// Jacobi must satisfy A*v = lambda*v for every eigenpair (property test).
func TestJacobiEigenEquation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randomSymmetric(rng, n)
		vals, vecs := Jacobi(a, 0)
		for col := 0; col < n; col++ {
			v := make([]float64, n)
			for i := 0; i < n; i++ {
				v[i] = vecs.At(i, col)
			}
			av := a.MulVec(v)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-vals[col]*v[i]) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Eigenvalue sum must equal the trace (property test).
func TestJacobiTracePreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomSymmetric(rng, n)
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		vals, _ := Jacobi(a, 0)
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return math.Abs(sum-trace) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	// Points spread along (1,1)/sqrt2 with tiny orthogonal noise: the
	// first component must align with that diagonal.
	rng := rand.New(rand.NewSource(11))
	data := NewMatrix(400, 2)
	for i := 0; i < data.Rows; i++ {
		tval := rng.NormFloat64() * 10
		noise := rng.NormFloat64() * 0.1
		data.Set(i, 0, tval+noise)
		data.Set(i, 1, tval-noise)
	}
	p := FitPCA(data, 1)
	c := p.Components.Row(0)
	inv := 1 / math.Sqrt2
	dot := math.Abs(c[0]*inv + c[1]*inv)
	if dot < 0.999 {
		t.Fatalf("first component %v not aligned with (1,1): |dot| = %g", c, dot)
	}
	if p.ExplainedVarianceRatio() < 0.99 {
		t.Fatalf("explained variance ratio = %g, want > 0.99", p.ExplainedVarianceRatio())
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(5)
		data := NewMatrix(50, d)
		for i := range data.Data {
			data.Data[i] = rng.NormFloat64()
		}
		p := FitPCA(data, 0)
		for a := 0; a < p.K(); a++ {
			for b := a; b < p.K(); b++ {
				dot := 0.0
				ra, rb := p.Components.Row(a), p.Components.Row(b)
				for i := range ra {
					dot += ra[i] * rb[i]
				}
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
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

func TestPCAVariancesDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := NewMatrix(100, 6)
	for i := range data.Data {
		data.Data[i] = rng.NormFloat64()
	}
	p := FitPCA(data, 0)
	for i := 1; i < len(p.Variances); i++ {
		if p.Variances[i] > p.Variances[i-1]+1e-12 {
			t.Fatalf("variances not descending: %v", p.Variances)
		}
	}
}

func TestPCAProjectReconstructFullRank(t *testing.T) {
	// With all components kept, project+reconstruct must be identity.
	rng := rand.New(rand.NewSource(2))
	data := NewMatrix(60, 4)
	for i := range data.Data {
		data.Data[i] = rng.NormFloat64()
	}
	p := FitPCA(data, 0)
	x := data.Row(7)
	back := p.Reconstruct(p.Project(x))
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-8 {
			t.Fatalf("reconstruction error at %d: %g vs %g", i, back[i], x[i])
		}
	}
}

func TestPCADimensionPanics(t *testing.T) {
	p := FitPCA(NewMatrix(5, 3), 2)
	mustPanic(t, func() { p.Project([]float64{1, 2}) })
	mustPanic(t, func() { p.Reconstruct([]float64{1, 2, 3}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
