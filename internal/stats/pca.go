package stats

import (
	"fmt"
	"math"
	"sort"
)

// Jacobi diagonalizes the symmetric matrix a using the cyclic Jacobi
// rotation method. It returns the eigenvalues and the matrix of
// eigenvectors (one eigenvector per column), unsorted. a is not modified.
// maxSweeps bounds the number of full sweeps; 0 selects a default.
func Jacobi(a *Matrix, maxSweeps int) (eigenvalues []float64, eigenvectors *Matrix) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("stats: Jacobi requires a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	if maxSweeps <= 0 {
		maxSweeps = 64
	}
	w := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const eps = 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Frobenius norm of the off-diagonal part.
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += 2 * w.At(i, j) * w.At(i, j)
			}
		}
		if math.Sqrt(off) < eps {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < eps {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}
	eigenvalues = make([]float64, n)
	for i := 0; i < n; i++ {
		eigenvalues[i] = w.At(i, i)
	}
	return eigenvalues, v
}

// rotate applies the Jacobi rotation G(p,q,c,s) to w (two-sided) and
// accumulates it into the eigenvector matrix v (one-sided).
func rotate(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows
	for k := 0; k < n; k++ {
		wkp := w.At(k, p)
		wkq := w.At(k, q)
		w.Set(k, p, c*wkp-s*wkq)
		w.Set(k, q, s*wkp+c*wkq)
	}
	for k := 0; k < n; k++ {
		wpk := w.At(p, k)
		wqk := w.At(q, k)
		w.Set(p, k, c*wpk-s*wqk)
		w.Set(q, k, s*wpk+c*wqk)
	}
	for k := 0; k < n; k++ {
		vkp := v.At(k, p)
		vkq := v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

// PCA holds a fitted principal-component model: the training mean and the
// leading components, ordered by decreasing explained variance.
type PCA struct {
	Mean       []float64 // column means of the training data
	Components *Matrix   // k x d, one component per row, unit norm
	Variances  []float64 // eigenvalue (variance) per kept component
	TotalVar   float64   // sum of all eigenvalues of the covariance
}

// FitPCA fits a PCA model on the rows of data, keeping k components
// (k <= data.Cols). k <= 0 keeps every component.
func FitPCA(data *Matrix, k int) *PCA {
	d := data.Cols
	if k <= 0 || k > d {
		k = d
	}
	cov := data.Covariance()
	vals, vecs := Jacobi(cov, 0)
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })

	p := &PCA{
		Mean:       data.ColumnMeans(),
		Components: NewMatrix(k, d),
		Variances:  make([]float64, k),
	}
	for _, v := range vals {
		p.TotalVar += v
	}
	for row := 0; row < k; row++ {
		col := order[row]
		p.Variances[row] = vals[col]
		norm := 0.0
		for i := 0; i < d; i++ {
			norm += vecs.At(i, col) * vecs.At(i, col)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for i := 0; i < d; i++ {
			p.Components.Set(row, i, vecs.At(i, col)/norm)
		}
	}
	return p
}

// K returns the number of kept components.
func (p *PCA) K() int { return p.Components.Rows }

// ProjectInto maps an observation x (length d) to the k-dimensional
// principal subspace, writing the scores into dst, which must have
// length K(). The centering is folded into each row's dot product, so
// no temporary is needed.
func (p *PCA) ProjectInto(dst, x []float64) []float64 {
	if len(x) != len(p.Mean) {
		panic(fmt.Sprintf("stats: PCA.ProjectInto dimension mismatch %d vs %d", len(x), len(p.Mean)))
	}
	if len(dst) != p.K() {
		panic(fmt.Sprintf("stats: PCA.ProjectInto wants %d scores, got %d", p.K(), len(dst)))
	}
	mean := p.Mean
	for r := range dst {
		row := p.Components.Row(r)
		// Unrolled four-wide with one sequential accumulator: the
		// products are added in the original index order, so the score
		// is bit-identical to the rolled dot product.
		sum := 0.0
		j := 0
		for ; j+4 <= len(row); j += 4 {
			sum += row[j] * (x[j] - mean[j])
			sum += row[j+1] * (x[j+1] - mean[j+1])
			sum += row[j+2] * (x[j+2] - mean[j+2])
			sum += row[j+3] * (x[j+3] - mean[j+3])
		}
		for ; j < len(row); j++ {
			sum += row[j] * (x[j] - mean[j])
		}
		dst[r] = sum
	}
	return dst
}

// ReconstructInto maps a score vector back into the original space,
// mean + scores * components, writing into dst, which must have length
// d (the original dimension).
func (p *PCA) ReconstructInto(dst, scores []float64) []float64 {
	if len(scores) != p.K() {
		panic(fmt.Sprintf("stats: PCA.ReconstructInto expects %d scores, got %d", p.K(), len(scores)))
	}
	if len(dst) != len(p.Mean) {
		panic(fmt.Sprintf("stats: PCA.ReconstructInto wants %d values, got %d", len(p.Mean), len(dst)))
	}
	copy(dst, p.Mean)
	for r, s := range scores {
		if s == 0 {
			continue
		}
		comp := p.Components.Row(r)
		for i, c := range comp {
			dst[i] += s * c
		}
	}
	return dst
}
