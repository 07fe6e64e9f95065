package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MulVec returns m * v for a column vector v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("stats: dimension mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		sum := 0.0
		for j, r := range row {
			sum += r * v[j]
		}
		out[i] = sum
	}
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a view, not a copy")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(i+j))
		}
	}
	got := m.MulVec([]float64{1, 2, 3})
	// row0 = [0 1 2] . [1 2 3] = 8; row1 = [1 2 3] . [1 2 3] = 14
	if got[0] != 8 || got[1] != 14 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestColumnMeansAndCovariance(t *testing.T) {
	// Two perfectly anti-correlated columns.
	m := NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		m.Set(i, 0, float64(i))
		m.Set(i, 1, -float64(i))
	}
	means := m.ColumnMeans()
	if means[0] != 1.5 || means[1] != -1.5 {
		t.Fatalf("means = %v", means)
	}
	cov := m.Covariance()
	// var of {0,1,2,3} with n-1 denominator = 5/3
	if math.Abs(cov.At(0, 0)-5.0/3.0) > 1e-12 {
		t.Fatalf("var = %g", cov.At(0, 0))
	}
	if math.Abs(cov.At(0, 1)+5.0/3.0) > 1e-12 {
		t.Fatalf("cov = %g", cov.At(0, 1))
	}
	if cov.At(0, 1) != cov.At(1, 0) {
		t.Fatal("covariance must be symmetric")
	}
}

func TestCovarianceDegenerate(t *testing.T) {
	cov := NewMatrix(1, 3).Covariance()
	for _, v := range cov.Data {
		if v != 0 {
			t.Fatal("covariance of a single row must be zero")
		}
	}
}

// Covariance must be invariant under adding a constant to a column
// (property test).
func TestCovarianceShiftInvariant(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(10, 3)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		shifted := m.Clone()
		for i := 0; i < shifted.Rows; i++ {
			shifted.Set(i, 1, shifted.At(i, 1)+shift)
		}
		a := m.Covariance()
		b := shifted.Covariance()
		for i := range a.Data {
			if math.Abs(a.Data[i]-b.Data[i]) > 1e-8*(1+math.Abs(shift)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
