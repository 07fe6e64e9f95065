package stats

import (
	"fmt"
	"math"
)

// Histogram bins scalar samples over a fixed range, mirroring the
// Euclidean-distance histograms of Figure 6.
type Histogram struct {
	Min, Max float64
	Counts   []int
	total    int
}

// NewHistogram creates a histogram with the given number of bins over
// [min, max). Samples outside the range are clamped into the edge bins so
// no data is silently dropped.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: histogram needs at least 1 bin, got %d", bins))
	}
	if !(max > min) {
		panic(fmt.Sprintf("stats: histogram range [%g, %g) is empty", min, max))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.Counts[h.binOf(v)]++
	h.total++
}

// AddAll records every sample of xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, v := range xs {
		h.Add(v)
	}
}

func (h *Histogram) binOf(v float64) int {
	b := int(float64(len(h.Counts)) * (v - h.Min) / (h.Max - h.Min))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	return b
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// PeakBin returns the index of the most populated bin (ties resolve to the
// lowest index).
func (h *Histogram) PeakBin() int {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return best
}

// PeakCenter returns the center value of the most populated bin: the
// "distribution peak" whose runtime shift the paper uses as the detection
// signal for the on-chip sensor histograms (Fig. 6(e)-(h)).
func (h *Histogram) PeakCenter() float64 { return h.BinCenter(h.PeakBin()) }

// Overlap returns the sample-count overlap between two histograms with
// identical binning, normalized to [0, 1]: 1 means identical
// distributions, 0 means disjoint. It implements the "are the golden and
// Trojan populations separable" question of Fig. 6 quantitatively.
func (h *Histogram) Overlap(o *Histogram) float64 {
	if len(h.Counts) != len(o.Counts) || h.Min != o.Min || h.Max != o.Max {
		panic("stats: Overlap requires identically binned histograms")
	}
	if h.total == 0 || o.total == 0 {
		return 0
	}
	overlap := 0.0
	for i := range h.Counts {
		a := float64(h.Counts[i]) / float64(h.total)
		b := float64(o.Counts[i]) / float64(o.total)
		overlap += math.Min(a, b)
	}
	return overlap
}

// PeakSeparation returns the absolute distance between the two
// distribution peaks in units of the bin width. A separation >= 1 means
// the peaks land in different bins — the paper's separability criterion
// for the sensor histograms.
func (h *Histogram) PeakSeparation(o *Histogram) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return math.Abs(h.PeakCenter()-o.PeakCenter()) / w
}
