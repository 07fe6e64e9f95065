// Package stats implements the statistical machinery of the paper's data
// analysis module: covariance and PCA (Section III-D mentions PCA for
// dimensionality reduction), Euclidean-distance fingerprinting with the
// Eq. (1) max-pairwise golden threshold, and histogram utilities used to
// reproduce Figure 6.
package stats

import "fmt"

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("stats: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ColumnMeans returns the mean of each column of m.
func (m *Matrix) ColumnMeans() []float64 {
	means := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	if m.Rows > 0 {
		for j := range means {
			means[j] /= float64(m.Rows)
		}
	}
	return means
}

// Covariance returns the sample covariance matrix (Cols x Cols) of the row
// observations in m, using the n-1 denominator.
func (m *Matrix) Covariance() *Matrix {
	means := m.ColumnMeans()
	cov := NewMatrix(m.Cols, m.Cols)
	if m.Rows < 2 {
		return cov
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for a := 0; a < m.Cols; a++ {
			da := row[a] - means[a]
			if da == 0 {
				continue
			}
			crow := cov.Row(a)
			for b := 0; b < m.Cols; b++ {
				crow[b] += da * (row[b] - means[b])
			}
		}
	}
	inv := 1 / float64(m.Rows-1)
	for i := range cov.Data {
		cov.Data[i] *= inv
	}
	return cov
}
