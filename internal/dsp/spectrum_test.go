package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// sine returns n samples of amplitude*sin(2*pi*f*t) sampled every dt.
func sine(n int, dt, f, amplitude float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = amplitude * math.Sin(2*math.Pi*f*float64(i)*dt)
	}
	return x
}

// binFrequency returns the frequency in hertz of bin k for a transform
// of length n over samples spaced dt seconds apart.
func binFrequency(k, n int, dt float64) float64 {
	return float64(k) / (float64(n) * dt)
}

func TestSpectrumSinusoidAmplitude(t *testing.T) {
	// A 3.0-amplitude sinusoid exactly on a bin must read ~3.0 in the
	// one-sided amplitude spectrum, for every window.
	const n = 1024
	const dt = 1e-6
	f := binFrequency(100, n, dt)
	x := sine(n, dt, f, 3.0)
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		s := NewSpectrum(x, dt, w)
		got := s.AmplitudeAt(f)
		if math.Abs(got-3.0) > 0.05 {
			t.Errorf("window %v: amplitude = %g, want ~3.0", w, got)
		}
	}
}

func TestSpectrumFrequencyMapping(t *testing.T) {
	const n = 1024
	const dt = 1e-6
	s := NewSpectrum(make([]float64, n), dt, Rectangular)
	if s.N != n {
		t.Fatalf("N = %d, want %d", s.N, n)
	}
	if math.Abs(s.Frequency(1)-s.DF) > 1e-12 {
		t.Fatal("Frequency(1) != DF")
	}
	if got := s.Bin(s.Frequency(77)); got != 77 {
		t.Fatalf("Bin(Frequency(77)) = %d", got)
	}
	if got := s.Bin(-10); got != 0 {
		t.Fatalf("Bin clamps low: got %d", got)
	}
	if got := s.Bin(1e12); got != len(s.Amplitude)-1 {
		t.Fatalf("Bin clamps high: got %d", got)
	}
}

func TestSpectrumEmptyInput(t *testing.T) {
	s := NewSpectrum(nil, 1e-6, Hann)
	if len(s.Amplitude) != 0 {
		t.Fatal("empty input must yield empty spectrum")
	}
	if s.AmplitudeAt(100) != 0 {
		t.Fatal("AmplitudeAt on empty spectrum must be 0")
	}
	if s.BandEnergy(0, 1e6) != 0 {
		t.Fatal("BandEnergy on empty spectrum must be 0")
	}
}

func TestSpectrumBandEnergy(t *testing.T) {
	const n = 1024
	const dt = 1e-6
	f := binFrequency(100, n, dt)
	x := sine(n, dt, f, 1.0)
	s := NewSpectrum(x, dt, Rectangular)
	in := s.BandEnergy(f-5*s.DF, f+5*s.DF)
	out := s.BandEnergy(f+50*s.DF, f+100*s.DF)
	if in <= 10*out {
		t.Fatalf("band energy around tone (%g) not dominant over off band (%g)", in, out)
	}
	// Reversed bounds must behave the same.
	if got := s.BandEnergy(f+5*s.DF, f-5*s.DF); math.Abs(got-in) > 1e-12 {
		t.Fatal("BandEnergy must accept reversed bounds")
	}
}

func TestWindowGain(t *testing.T) {
	if g := windowFor(Rectangular, 64).gain; math.Abs(g-1) > 1e-12 {
		t.Fatalf("rect gain = %g", g)
	}
	if g := windowFor(Hann, 4096).gain; math.Abs(g-0.5) > 1e-3 {
		t.Fatalf("hann gain = %g, want ~0.5", g)
	}
}

func TestWindowCoefficientsBounds(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		c := windowFor(w, 129).coef
		for i, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("window %v coefficient %d out of [0,1]: %g", w, i, v)
			}
		}
	}
	if c := windowFor(Hann, 1).coef; c[0] != 1 {
		t.Fatal("length-1 window must be identity")
	}
}

func TestWindowString(t *testing.T) {
	if Hann.String() != "hann" || Window(99).String() != "unknown" {
		t.Fatal("Window.String misbehaves")
	}
}

func TestSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	noise := make([]float64, 4096)
	for i := range noise {
		noise[i] = rng.NormFloat64() * 0.01
	}
	signal := sine(4096, 1e-6, 1000, 1.0)
	for i := range signal {
		signal[i] += rng.NormFloat64() * 0.01
	}
	snr := SNRdB(signal, noise)
	// amplitude 1.0 sinusoid has RMS ~0.707 vs noise RMS 0.01 -> ~37 dB.
	if snr < 33 || snr > 40 {
		t.Fatalf("SNRdB = %g, want ~37", snr)
	}
}

func TestSNRZeroNoise(t *testing.T) {
	if !math.IsInf(SNRVoltage([]float64{1, -1}, []float64{0, 0}), 1) {
		t.Fatal("zero noise must give +Inf SNR")
	}
}

func TestDBConversions(t *testing.T) {
	if got := VoltageRatioDB(10); math.Abs(got-20) > 1e-12 {
		t.Fatalf("VoltageRatioDB(10) = %g", got)
	}
	if !math.IsInf(VoltageRatioDB(0), -1) || !math.IsInf(VoltageRatioDB(-1), -1) {
		t.Fatal("non-positive ratios must map to -Inf")
	}
}

func TestRMSAndMean(t *testing.T) {
	if RMS(nil) != 0 || Mean(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
	if got := RMS([]float64{3, -4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMS = %g", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %g", got)
	}
	centered := RemoveMean([]float64{1, 2, 3})
	if Mean(centered) > 1e-12 {
		t.Fatal("RemoveMean must center the signal")
	}
}
