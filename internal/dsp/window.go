package dsp

import (
	"math"
	"sync"
)

// Window identifies a tapering function applied to a signal before a
// spectral transform to control leakage.
type Window int

const (
	// Rectangular applies no tapering.
	Rectangular Window = iota
	// Hann is the raised-cosine window; the paper's spectral comparisons
	// use it as the default because it suppresses leakage around the
	// clock harmonics without widening peaks too far.
	Hann
	// Hamming is the classic 0.54/0.46 window.
	Hamming
	// Blackman is a three-term window with very low sidelobes.
	Blackman
)

// String returns the conventional window name.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return "unknown"
	}
}

// windowVec is a cached window vector: the coefficients plus the
// coherent gain the spectrum normalization needs, computed once per
// (window, length) pair. The coef slice is shared read-only.
type windowVec struct {
	coef []float64
	gain float64 // coherent gain: mean coefficient
}

type windowKey struct {
	w Window
	n int
}

var (
	windowMu   sync.RWMutex
	windowVecs = map[windowKey]*windowVec{}
)

// windowFor returns the cached window vector for (w, n), building it on
// first use. The read path takes only an RLock and never allocates.
func windowFor(w Window, n int) *windowVec {
	k := windowKey{w, n}
	windowMu.RLock()
	v := windowVecs[k]
	windowMu.RUnlock()
	if v != nil {
		return v
	}
	c := computeCoefficients(w, n)
	v = &windowVec{coef: c, gain: 1}
	if n > 0 {
		sum := 0.0
		for _, cv := range c {
			sum += cv
		}
		v.gain = sum / float64(n)
	}
	windowMu.Lock()
	if q, ok := windowVecs[k]; ok {
		v = q
	} else {
		windowVecs[k] = v
	}
	windowMu.Unlock()
	return v
}

func computeCoefficients(w Window, n int) []float64 {
	c := make([]float64, n)
	if n == 1 {
		c[0] = 1
		return c
	}
	den := float64(n - 1)
	for i := range c {
		t := float64(i) / den
		switch w {
		case Hann:
			c[i] = 0.5 - 0.5*math.Cos(2*math.Pi*t)
		case Hamming:
			c[i] = 0.54 - 0.46*math.Cos(2*math.Pi*t)
		case Blackman:
			c[i] = 0.42 - 0.5*math.Cos(2*math.Pi*t) + 0.08*math.Cos(4*math.Pi*t)
		default:
			c[i] = 1
		}
	}
	return c
}
