package dsp

import "math"

// Spectrum is a one-sided amplitude spectrum of a real signal.
type Spectrum struct {
	// Amplitude holds per-bin amplitudes for bins 0..N/2 of the
	// underlying transform, rescaled by the window's coherent gain so
	// that a full-scale sinusoid reads close to its time-domain
	// amplitude.
	Amplitude []float64
	// DF is the bin spacing in hertz.
	DF float64
	// N is the underlying (zero-padded) transform length.
	N int
}

// NewSpectrum computes a one-sided amplitude spectrum of the real signal x
// sampled every dt seconds, after applying window w and zero-padding to a
// power of two. It runs on the planned engine (plan.go); hot loops that
// want to reuse the amplitude buffer call Plan.SpectrumInto directly.
func NewSpectrum(x []float64, dt float64, w Window) *Spectrum {
	if len(x) == 0 {
		return &Spectrum{Amplitude: []float64{}, DF: 0, N: 0}
	}
	p := PlanForLength(len(x))
	amp := p.SpectrumInto(nil, x, w)
	return &Spectrum{Amplitude: amp, DF: 1 / (float64(p.Size()) * dt), N: p.Size()}
}

// Frequency returns the frequency of bin k in hertz.
func (s *Spectrum) Frequency(k int) float64 { return float64(k) * s.DF }

// Bin returns the bin index closest to frequency f, clamped to the valid
// range.
func (s *Spectrum) Bin(f float64) int {
	if s.DF == 0 {
		return 0
	}
	k := int(math.Round(f / s.DF))
	if k < 0 {
		k = 0
	}
	if k >= len(s.Amplitude) {
		k = len(s.Amplitude) - 1
	}
	return k
}

// AmplitudeAt returns the amplitude at the bin closest to frequency f.
func (s *Spectrum) AmplitudeAt(f float64) float64 {
	if len(s.Amplitude) == 0 {
		return 0
	}
	return s.Amplitude[s.Bin(f)]
}

// BandEnergy integrates squared amplitude over [fLo, fHi] (inclusive
// bins). It returns 0 for an empty spectrum, like AmplitudeAt.
func (s *Spectrum) BandEnergy(fLo, fHi float64) float64 {
	if len(s.Amplitude) == 0 {
		return 0
	}
	lo, hi := s.Bin(fLo), s.Bin(fHi)
	if lo > hi {
		lo, hi = hi, lo
	}
	e := 0.0
	for k := lo; k <= hi; k++ {
		e += s.Amplitude[k] * s.Amplitude[k]
	}
	return e
}
