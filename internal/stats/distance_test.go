package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

func TestEuclideanKnown(t *testing.T) {
	if d := Euclidean([]float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Fatalf("Euclidean = %g, want 5", d)
	}
	if d := Euclidean([]float64{1, 2, 3}, []float64{1, 2, 3}); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
}

func TestEuclideanPanicsOnMismatch(t *testing.T) {
	mustPanic(t, func() { Euclidean([]float64{1}, []float64{1, 2}) })
}

// Metric axioms: symmetry, non-negativity, triangle inequality.
func TestEuclideanMetricAxioms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		dab := Euclidean(a, b)
		dba := Euclidean(b, a)
		dac := Euclidean(a, c)
		dcb := Euclidean(c, b)
		if dab < 0 || math.Abs(dab-dba) > 1e-12 {
			return false
		}
		return dab <= dac+dcb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxPairwiseDistance(t *testing.T) {
	m := NewMatrix(3, 1)
	m.Set(0, 0, 0)
	m.Set(1, 0, 2)
	m.Set(2, 0, 10)
	if d := MaxPairwiseDistance(m); d != 10 {
		t.Fatalf("MaxPairwiseDistance = %g, want 10", d)
	}
	if d := MaxPairwiseDistance(NewMatrix(1, 4)); d != 0 {
		t.Fatalf("single sample must give 0, got %g", d)
	}
}

// Eq. (1) threshold property: no golden sample pair may ever exceed it.
func TestThresholdCoversGolden(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(10, 3)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		th := MaxPairwiseDistance(m)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Rows; j++ {
				if Euclidean(m.Row(i), m.Row(j)) > th+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinDistanceToSet(t *testing.T) {
	m := NewMatrix(2, 1)
	m.Set(0, 0, 5)
	m.Set(1, 0, -1)
	if d := MinDistanceToSet([]float64{0}, m); d != 1 {
		t.Fatalf("MinDistanceToSet = %g, want 1", d)
	}
	if !math.IsInf(MinDistanceToSet([]float64{0}, NewMatrix(0, 1)), 1) {
		t.Fatal("empty set must give +Inf")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Fatalf("median = %g", s.Median)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %g, want %g", s.Std, want)
	}
	odd := Summarize([]float64{3, 1, 2})
	if odd.Median != 2 {
		t.Fatalf("odd median = %g", odd.Median)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Median != 7 {
		t.Fatalf("singleton summary = %+v", one)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddAll([]float64{0.5, 1.5, 1.6, 9.9, -5, 100})
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Counts[0] != 2 { // 0.5 and clamped -5
		t.Fatalf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Fatalf("bin1 = %d", h.Counts[1])
	}
	if h.Counts[9] != 2 { // 9.9 and clamped 100
		t.Fatalf("bin9 = %d", h.Counts[9])
	}
	if h.PeakBin() != 0 {
		t.Fatalf("peak bin = %d (ties resolve low)", h.PeakBin())
	}
	if math.Abs(h.BinCenter(0)-0.5) > 1e-12 {
		t.Fatalf("bin center = %g", h.BinCenter(0))
	}
}

func TestHistogramOverlap(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		a.Add(2.5)
		b.Add(2.5)
	}
	if o := a.Overlap(b); math.Abs(o-1) > 1e-12 {
		t.Fatalf("identical overlap = %g", o)
	}
	c := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		c.Add(7.5)
	}
	if o := a.Overlap(c); o != 0 {
		t.Fatalf("disjoint overlap = %g", o)
	}
	if sep := a.PeakSeparation(c); math.Abs(sep-5) > 1e-12 {
		t.Fatalf("peak separation = %g, want 5", sep)
	}
}

func TestHistogramOverlapPanicsOnMismatch(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 10, 20)
	mustPanic(t, func() { a.Overlap(b) })
}

func TestHistogramConstructorPanics(t *testing.T) {
	mustPanic(t, func() { NewHistogram(0, 10, 0) })
	mustPanic(t, func() { NewHistogram(5, 5, 4) })
}
