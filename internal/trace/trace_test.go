package trace

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"emtrust/internal/dsp"
)

func TestTraceBasics(t *testing.T) {
	tr := &Trace{Dt: 1e-6, Samples: []float64{1, 2, 3}}
	if tr.Duration() != 3e-6 {
		t.Fatalf("duration = %g", tr.Duration())
	}
	cl := tr.Clone()
	cl.Samples[0] = 99
	if tr.Samples[0] != 1 {
		t.Fatal("Clone aliases")
	}
	csv := tr.CSV()
	if !strings.HasPrefix(csv, "time_s,voltage_v\n") || strings.Count(csv, "\n") != 4 {
		t.Fatalf("csv = %q", csv)
	}
}

func TestAcquireAddsCalibratedNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := SimulationChannel(0.01)
	clean := make([]float64, 16384)
	tr := a.Acquire(clean, 1e-8, rng)
	rms := dsp.RMS(tr.Samples)
	if math.Abs(rms-0.01) > 0.001 {
		t.Fatalf("noise RMS = %g, want ~0.01", rms)
	}
}

func TestAcquirePreservesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := SimulationChannel(0)
	clean := []float64{1, -1, 0.5}
	tr := a.Acquire(clean, 1e-8, rng)
	for i, v := range clean {
		if tr.Samples[i] != v {
			t.Fatal("noiseless channel must be transparent")
		}
	}
	if tr.Dt != 1e-8 {
		t.Fatal("dt lost")
	}
}

func TestAcquireGain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Acquisition{Gain: 10}
	tr := a.Acquire([]float64{1}, 1e-8, rng)
	if tr.Samples[0] != 10 {
		t.Fatalf("gain not applied: %g", tr.Samples[0])
	}
	// Zero gain defaults to unity, so a zero-valued Acquisition is usable.
	b := Acquisition{}
	tr = b.Acquire([]float64{1}, 1e-8, rng)
	if tr.Samples[0] != 1 {
		t.Fatal("zero gain must default to 1")
	}
}

func TestMeasurementChannelInterference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := MeasurementChannel(0, 0.1, 1)
	a.ADCBits = 0 // isolate the interference
	tr := a.Acquire(make([]float64, 65536), 1e-7, rng)
	rms := dsp.RMS(tr.Samples)
	if math.Abs(rms-0.1) > 0.02 {
		t.Fatalf("interference RMS = %g, want ~0.1", rms)
	}
	// Interference must concentrate at the configured tone.
	spec := dsp.NewSpectrum(tr.Samples, 1e-7, dsp.Hann)
	peak := 1 // the strongest bin above DC
	for k := 2; k < len(spec.Amplitude); k++ {
		if spec.Amplitude[k] > spec.Amplitude[peak] {
			peak = k
		}
	}
	if f := spec.Frequency(peak); math.Abs(f-a.InterferenceHz) > 5*spec.DF {
		t.Fatalf("interference peak at %g, want %g", f, a.InterferenceHz)
	}
}

func TestQuantization(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Acquisition{ADCBits: 3, FullScale: 1, Gain: 1}
	in := []float64{0.999, -2, 0.1, 2}
	tr := a.Acquire(in, 1e-8, rng)
	step := 2.0 / 8
	for i, v := range tr.Samples {
		q := v / step
		if math.Abs(q-math.Round(q)) > 1e-9 {
			t.Fatalf("sample %d = %g not on the ADC grid", i, v)
		}
		if v > 1 || v < -1 {
			t.Fatalf("sample %d = %g beyond full scale", i, v)
		}
	}
}
