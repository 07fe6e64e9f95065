package stats

import (
	"fmt"
	"math"
	"sort"
)

// Euclidean returns the Euclidean (L2) distance between a and b, which must
// have the same length.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: Euclidean length mismatch %d vs %d", len(a), len(b)))
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// MaxPairwiseDistance implements Eq. (1) of the paper: the maximum
// Euclidean distance between any two samples of the golden (Trojan-free)
// data set. The paper uses this as the detection threshold EDth so that
// residual noise surviving denoising and PCA never raises a false alarm on
// golden data.
func MaxPairwiseDistance(golden *Matrix) float64 {
	max := 0.0
	for i := 0; i < golden.Rows; i++ {
		ri := golden.Row(i)
		for j := i + 1; j < golden.Rows; j++ {
			if d := Euclidean(ri, golden.Row(j)); d > max {
				max = d
			}
		}
	}
	return max
}

// Centroid returns the mean row of m.
func Centroid(m *Matrix) []float64 { return m.ColumnMeans() }

// MinDistanceToSet returns the smallest Euclidean distance from x to any
// row of set. It returns +Inf for an empty set.
func MinDistanceToSet(x []float64, set *Matrix) float64 {
	min := math.Inf(1)
	for i := 0; i < set.Rows; i++ {
		if d := Euclidean(x, set.Row(i)); d < min {
			min = d
		}
	}
	return min
}

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
}

// Summarize computes descriptive statistics of x.
func Summarize(x []float64) Summary {
	s := Summary{N: len(x)}
	if len(x) == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, v := range x {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(len(x))
	for _, v := range x {
		d := v - s.Mean
		s.Std += d * d
	}
	if len(x) > 1 {
		s.Std = math.Sqrt(s.Std / float64(len(x)-1))
	} else {
		s.Std = 0
	}
	sorted := make([]float64, len(x))
	copy(sorted, x)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}
