package dsp

import (
	"math"
	"testing"
)

func TestGoertzelMatchesSpectrum(t *testing.T) {
	const n = 1024
	const dt = 1e-6
	f := binFrequency(100, n, dt)
	x := sine(n, dt, f, 2.5)
	got := Goertzel(x, dt, f)
	if math.Abs(got-2.5) > 0.01 {
		t.Fatalf("Goertzel amplitude = %g, want 2.5", got)
	}
	// Off-frequency bins read near zero.
	if off := Goertzel(x, dt, binFrequency(300, n, dt)); off > 0.05 {
		t.Fatalf("off-bin amplitude = %g", off)
	}
	if Goertzel(nil, dt, f) != 0 {
		t.Fatal("empty input must give 0")
	}
}

func TestGoertzelSeriesTracksOOK(t *testing.T) {
	// Build an on-off-keyed tone: 4 symbols 1,0,1,0 of 512 samples each.
	const dt = 1e-7
	const f = 750e3
	const symbol = 512
	var x []float64
	for s := 0; s < 4; s++ {
		for i := 0; i < symbol; i++ {
			v := 0.0
			if s%2 == 0 {
				v = math.Sin(2 * math.Pi * f * float64(len(x)) * dt)
			}
			x = append(x, v)
		}
	}
	env := GoertzelSeries(x, dt, f, symbol, symbol)
	if len(env) != 4 {
		t.Fatalf("envelope length = %d", len(env))
	}
	if !(env[0] > 5*env[1] && env[2] > 5*env[3]) {
		t.Fatalf("envelope does not track keying: %v", env)
	}
	if GoertzelSeries(x, dt, f, 0, symbol) != nil || GoertzelSeries(x[:10], dt, f, symbol, symbol) != nil {
		t.Fatal("degenerate inputs must return nil")
	}
}
