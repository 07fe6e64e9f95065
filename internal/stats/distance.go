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

// Median returns the upper median of x, the element at index len(x)/2
// of the sorted sample (0 for an empty one), found by selection in
// linear expected time. Unlike Summarize's, an even-length sample's
// median is not averaged. x is not modified.
func Median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	cp := make([]float64, len(x))
	copy(cp, x)
	return selectMiddle(cp)
}

// RobustScale returns Median(x) and 1.4826 × the upper median of the
// absolute deviations about it: a Gaussian sigma estimate (MAD) that a
// minority of outliers barely moves. It works in place, so x, which
// must be the caller's scratch, is left holding the deviations.
func RobustScale(x []float64) (med, sigma float64) {
	if len(x) == 0 {
		return 0, 0
	}
	med = selectMiddle(x)
	for i, v := range x {
		x[i] = math.Abs(v - med)
	}
	return med, 1.4826 * selectMiddle(x)
}

// selectMiddle partially sorts x (Hoare partitioning) until x[len(x)/2]
// holds the element a full sort would put there, and returns it.
func selectMiddle(x []float64) float64 {
	k := len(x) / 2
	lo, hi := 0, len(x)-1
	for lo < hi {
		pivot := x[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for x[j] > pivot {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return x[k]
}
