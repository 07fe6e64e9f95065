package core

import (
	"fmt"
	"math"
	"sync"

	"emtrust/internal/dsp"
	"emtrust/internal/stats"
	"emtrust/internal/trace"
)

// SpectralConfig sets the frequency-domain detector of Section III-E.
type SpectralConfig struct {
	// Window tapers traces before the FFT.
	Window dsp.Window
	// Margin is the relative amplitude increase over the golden
	// envelope that flags a spot (e.g. 0.5 = +50%).
	Margin float64
	// FloorFactor sets the detection floor as a multiple of the median
	// golden bin amplitude; spots below the floor are ignored as noise.
	FloorFactor float64
}

// DefaultSpectralConfig returns the detector tuning used by the
// experiments.
func DefaultSpectralConfig() SpectralConfig {
	return SpectralConfig{Window: dsp.Hann, Margin: 0.5, FloorFactor: 6}
}

// SpectralDetector holds the golden spectral envelope: per-bin maxima
// over the golden captures, against which runtime spectra are compared
// for "extra frequency spots or increased amplitude".
type SpectralDetector struct {
	cfg      SpectralConfig
	Envelope []float64 // per-bin max golden amplitude
	Mean     []float64 // per-bin mean golden amplitude (for reporting)
	Floor    float64
	DF       float64
	// scratch pools per-call amplitude buffers so the clean verdict
	// path allocates nothing at steady state, even with several
	// monitors or evaluators evaluating concurrently on one shared
	// detector.
	scratch sync.Pool
}

// BuildSpectralDetector fits the golden envelope. All traces must share
// one sample rate and length.
func BuildSpectralDetector(golden []*trace.Trace, cfg SpectralConfig) (*SpectralDetector, error) {
	if len(golden) == 0 {
		return nil, fmt.Errorf("core: need golden traces for the spectral detector")
	}
	if cfg.Margin <= 0 {
		cfg.Margin = 0.5
	}
	if cfg.FloorFactor <= 0 {
		cfg.FloorFactor = 6
	}
	var env, mean, amp []float64
	var df float64
	for _, t := range golden {
		p := dsp.PlanForLength(len(t.Samples))
		amp = p.SpectrumInto(amp, t.Samples, cfg.Window)
		if env == nil {
			env = make([]float64, len(amp))
			mean = make([]float64, len(amp))
			df = 1 / (float64(p.Size()) * t.Dt)
		}
		if len(amp) != len(env) {
			return nil, fmt.Errorf("core: golden traces disagree on spectrum length (%d vs %d)", len(amp), len(env))
		}
		for i, a := range amp {
			if a > env[i] {
				env[i] = a
			}
			mean[i] += a
		}
	}
	for i := range mean {
		mean[i] /= float64(len(golden))
	}
	d := &SpectralDetector{cfg: cfg, Envelope: env, Mean: mean, DF: df}
	d.Floor = cfg.FloorFactor * stats.Median(mean)
	return d, nil
}

// Spot is one offending frequency bin.
type Spot struct {
	Bin       int
	Frequency float64
	Amplitude float64
	Golden    float64 // envelope amplitude at the same bin
	New       bool    // true when the golden envelope was below the floor here
}

// SpectralVerdict is the outcome of the frequency-domain detector.
type SpectralVerdict struct {
	Spots []Spot
	Alarm bool
}

// Evaluate compares one trace's spectrum against the golden envelope.
// The spectrum lands in a pooled buffer from the planned engine, so a
// clean verdict allocates nothing; Spots are allocated only on alarm.
// Safe for concurrent use on a shared detector.
func (d *SpectralDetector) Evaluate(t *trace.Trace) SpectralVerdict {
	bp, _ := d.scratch.Get().(*[]float64)
	if bp == nil {
		bp = new([]float64)
	}
	p := dsp.PlanForLength(len(t.Samples))
	amp := p.SpectrumInto(*bp, t.Samples, d.cfg.Window)
	df := 0.0
	if len(t.Samples) > 0 {
		df = 1 / (float64(p.Size()) * t.Dt)
	}
	var v SpectralVerdict
	n := len(amp)
	if n > len(d.Envelope) {
		n = len(d.Envelope)
	}
	for i := 1; i < n; i++ { // skip DC
		a := amp[i]
		if a < d.Floor {
			continue
		}
		g := d.Envelope[i]
		if a <= g*(1+d.cfg.Margin) {
			continue // within the golden envelope's margin
		}
		v.Spots = append(v.Spots, Spot{
			Bin: i, Frequency: float64(i) * df, Amplitude: a, Golden: g,
			New: g < d.Floor,
		})
	}
	v.Alarm = len(v.Spots) > 0
	*bp = amp
	d.scratch.Put(bp)
	return v
}

// StrongestSpot returns the spot with the largest amplitude excess over
// the golden envelope, or a zero Spot when the verdict is clean.
func (v SpectralVerdict) StrongestSpot() Spot {
	var best Spot
	bestExcess := math.Inf(-1)
	for _, s := range v.Spots {
		if e := s.Amplitude - s.Golden; e > bestExcess {
			bestExcess = e
			best = s
		}
	}
	return best
}
