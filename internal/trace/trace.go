// Package trace models the measurement chain between the coil and the
// data-analysis module: additive environment noise, oscilloscope
// sampling, and ADC quantization. The split between "simulation mode"
// (Section IV: white noise only) and "measurement mode" (Section V:
// extra interference, worse for the external probe) lives in the
// acquisition configuration.
package trace

import (
	"fmt"
	"math"
	"strings"

	"emtrust/internal/frand"
)

// Rand is the slice of randomness the measurement chain consumes: one
// uniform draw for the interference phase, one normal draw per sample
// for environment noise, and the occasional bounded integer for fault
// injection run lengths (internal/degrade). Both *math/rand.Rand and
// the repo's concrete *frand.Rand satisfy it; the fleet hot path passes
// the latter, for which Normals and FirstBelow draw in bulk instead of
// making one interface call per sample.
type Rand interface {
	Float64() float64
	NormFloat64() float64
	Intn(n int) int
}

// Normals fills dst with successive rng.NormFloat64 draws. A
// *frand.Rand draws them in bulk; any other Rand gets one call per
// value. Both consume the same stream, so the values are identical.
func Normals(rng Rand, dst []float64) {
	if fr, ok := rng.(*frand.Rand); ok {
		fr.NormFloat64s(dst)
		return
	}
	for i := range dst {
		dst[i] = rng.NormFloat64()
	}
}

// FirstBelow makes up to n Bernoulli tests rng.Float64() < p and
// returns the index of the first that succeeds, or n when none does,
// consuming exactly the draws made up to it. A *frand.Rand scans its
// raw stream against an integer threshold; any other Rand gets one
// Float64 call per test.
func FirstBelow(rng Rand, p float64, n int) int {
	if fr, ok := rng.(*frand.Rand); ok {
		return fr.FirstBelow(p, n)
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			return i
		}
	}
	return n
}

// Trace is a sampled voltage record.
type Trace struct {
	Dt      float64 // sample spacing in seconds
	Samples []float64
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.Samples)) * t.Dt }

// Clone returns a deep copy.
func (t *Trace) Clone() *Trace {
	s := make([]float64, len(t.Samples))
	copy(s, t.Samples)
	return &Trace{Dt: t.Dt, Samples: s}
}

// CSV renders the trace as "time,voltage" lines for external plotting.
func (t *Trace) CSV() string {
	var sb strings.Builder
	sb.WriteString("time_s,voltage_v\n")
	for i, v := range t.Samples {
		fmt.Fprintf(&sb, "%.9e,%.9e\n", float64(i)*t.Dt, v)
	}
	return sb.String()
}

// Channel converts a clean coil waveform into a measured trace. The
// concrete Acquisition models a healthy front end; wrappers (see
// internal/degrade) can interpose fault injection between the coil and
// the data-analysis module without the experiments noticing.
type Channel interface {
	Acquire(clean []float64, dt float64, rng Rand) *Trace
}

// ScaledAcquirer is the allocation-free fast path of a Channel: it
// writes the measured record into dst (reusing dst.Samples when the
// capacity suffices) and folds a caller-supplied amplitude scale into
// the front-end gain, so a common-mode gain wobble costs no separate
// copy pass. Acquire(clean, dt, rng) must equal
// AcquireScaledInto(new, clean, 1, dt, rng) bit for bit.
type ScaledAcquirer interface {
	AcquireScaledInto(dst *Trace, clean []float64, scale, dt float64, rng Rand) *Trace
}

// Acquisition models one measurement channel (sensor or probe).
type Acquisition struct {
	// NoiseRMS is the RMS of the additive white Gaussian environment
	// noise referred to the coil output (volts). The paper's on-chip
	// sensor sees far less of it than the external probe.
	NoiseRMS float64
	// InterferenceRMS adds narrowband mains-and-lab interference, the
	// reason the fabricated chip's external probe SNR (13.87 dB) is
	// worse than its simulated one (17.48 dB). Zero in simulation mode.
	InterferenceRMS float64
	// InterferenceHz is the interference tone frequency.
	InterferenceHz float64
	// ADCBits and FullScale quantize the record like the oscilloscope;
	// ADCBits <= 0 disables quantization.
	ADCBits   int
	FullScale float64
	// Gain is the analog front-end gain applied before the ADC.
	Gain float64
}

// SimulationChannel returns the Section IV acquisition: white noise only.
func SimulationChannel(noiseRMS float64) Acquisition {
	return Acquisition{NoiseRMS: noiseRMS, Gain: 1}
}

// MeasurementChannel returns the Section V acquisition: white noise plus
// narrowband interference and 8-bit oscilloscope quantization.
func MeasurementChannel(noiseRMS, interferenceRMS, fullScale float64) Acquisition {
	return Acquisition{
		NoiseRMS:        noiseRMS,
		InterferenceRMS: interferenceRMS,
		InterferenceHz:  50e3,
		ADCBits:         8,
		FullScale:       fullScale,
		Gain:            1,
	}
}

// Acquire converts a clean coil waveform into a measured trace: gain,
// noise, interference, quantization. The rng makes captures reproducible;
// phase of the interference tone is randomized per capture, as on a real
// unsynchronized scope.
func (a Acquisition) Acquire(clean []float64, dt float64, rng Rand) *Trace {
	return a.AcquireScaledInto(&Trace{}, clean, 1, dt, rng)
}

// noiseChunk is how many normal draws AcquireScaledInto takes in one
// bulk call, into a stack buffer.
const noiseChunk = 256

// AcquireScaledInto implements ScaledAcquirer: Acquire with the clean
// waveform pre-multiplied by scale, written into dst. dst.Samples is
// reused when its capacity suffices, and may be clean itself: each
// output sample is written only after its input sample is read. The
// rng draw order (interference phase first, then one normal draw per
// sample) matches Acquire exactly, so reseeded streams reproduce the
// allocating path bit for bit; the normal draws are taken in chunks
// through Normals. scale*gain is applied as (v*scale)*g, two rounded
// multiplies, matching a caller that scaled the waveform itself before
// acquiring.
func (a Acquisition) AcquireScaledInto(dst *Trace, clean []float64, scale, dt float64, rng Rand) *Trace {
	g := a.Gain
	if g == 0 {
		g = 1
	}
	out := dst.Samples
	if cap(out) < len(clean) {
		out = make([]float64, len(clean))
	} else {
		out = out[:len(clean)]
	}
	phase := rng.Float64() * 2 * math.Pi
	var noise [noiseChunk]float64
	for lo := 0; lo < len(clean); lo += noiseChunk {
		in := clean[lo:min(lo+noiseChunk, len(clean))]
		if a.NoiseRMS > 0 {
			Normals(rng, noise[:len(in)])
		}
		for k, v := range in {
			s := (v * scale) * g
			if a.NoiseRMS > 0 {
				s += noise[k] * a.NoiseRMS
			}
			if a.InterferenceRMS > 0 {
				s += a.InterferenceRMS * math.Sqrt2 * math.Sin(2*math.Pi*a.InterferenceHz*float64(lo+k)*dt+phase)
			}
			out[lo+k] = s
		}
	}
	if a.ADCBits > 0 && a.FullScale > 0 && !math.IsInf(a.FullScale, 1) {
		quantize(out, a.ADCBits, a.FullScale)
	}
	dst.Dt = dt
	dst.Samples = out
	return dst
}

// AcquireNoise captures a record with no signal (the chip idling), used
// for the separate-noise-measurement SNR protocol of Section V-A.
func (a Acquisition) AcquireNoise(n int, dt float64, rng Rand) *Trace {
	return a.Acquire(make([]float64, n), dt, rng)
}

// maxADCBits caps the converter width quantize honours. Its grid of
// 2⁶³ levels is already finer than float64 resolves near full scale;
// beyond it, 1<<bits would overflow to zero levels and an infinite
// step, turning every sample into NaN.
const maxADCBits = 63

// quantize rounds samples to the ADC grid and clips at full scale.
func quantize(x []float64, bits int, fullScale float64) {
	levels := math.Ldexp(1, min(bits, maxADCBits))
	step := 2 * fullScale / levels
	for i, v := range x {
		if v > fullScale {
			v = fullScale
		}
		if v < -fullScale {
			v = -fullScale
		}
		x[i] = math.Round(v/step) * step
	}
}

// Set is a collection of traces from the same channel and workload.
type Set struct {
	Traces []*Trace
}

// Add appends a trace.
func (s *Set) Add(t *Trace) { s.Traces = append(s.Traces, t) }

// Len returns the number of traces.
func (s *Set) Len() int { return len(s.Traces) }

// Matrix flattens the set into rows of samples, truncating every trace
// to the shortest length so the rows are rectangular.
func (s *Set) Matrix() ([][]float64, error) {
	if len(s.Traces) == 0 {
		return nil, fmt.Errorf("trace: empty set")
	}
	minLen := len(s.Traces[0].Samples)
	for _, t := range s.Traces {
		if len(t.Samples) < minLen {
			minLen = len(t.Samples)
		}
	}
	rows := make([][]float64, len(s.Traces))
	for i, t := range s.Traces {
		rows[i] = t.Samples[:minLen]
	}
	return rows, nil
}
