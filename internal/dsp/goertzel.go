package dsp

import "math"

// Goertzel computes the magnitude of a single frequency component of x
// (sampled every dt seconds) using the Goertzel algorithm — much cheaper
// than a full FFT when only one bin matters, which is exactly the
// demodulator's case (the 750 kHz AM carrier of Trojan 1). A
// zero-length input is clamped to amplitude 0.
func Goertzel(x []float64, dt, freq float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	// Normalized frequency in cycles per sample.
	k := freq * dt
	w := 2 * math.Pi * k
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	// Scale to the one-sided amplitude convention of NewSpectrum.
	return 2 * math.Sqrt(power) / float64(n)
}

// GoertzelSeries slides a Goertzel window of winLen samples across x with
// the given hop and returns the per-window carrier amplitude: the
// envelope of an on-off-keyed tone. Degenerate arguments — winLen <= 0,
// hop <= 0, or a signal shorter than one window — are clamped to a nil
// result rather than panicking or looping forever.
func GoertzelSeries(x []float64, dt, freq float64, winLen, hop int) []float64 {
	if winLen <= 0 || hop <= 0 || len(x) < winLen {
		return nil
	}
	var out []float64
	for start := 0; start+winLen <= len(x); start += hop {
		out = append(out, Goertzel(x[start:start+winLen], dt, freq))
	}
	return out
}
