package dsp

import (
	"math"
	"testing"
)

// The degenerate-argument contracts: every helper a monitor or
// experiment feeds raw capture parameters into must clamp rather than
// panic or spin.

func TestGoertzelEmptyInput(t *testing.T) {
	if got := Goertzel(nil, 1e-9, 750e3); got != 0 {
		t.Fatalf("Goertzel(nil) = %g, want 0", got)
	}
	if got := Goertzel([]float64{}, 1e-9, 750e3); got != 0 {
		t.Fatalf("Goertzel(empty) = %g, want 0", got)
	}
}

func TestGoertzelMatchesSpectrumBin(t *testing.T) {
	// Sanity anchor for the guard tests: on a full-bin tone the
	// Goertzel amplitude matches the rectangular-window spectrum bin.
	const n, dt = 512, 1e-9
	freq := 20.0 / (float64(n) * dt)
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.8 * math.Sin(2*math.Pi*freq*dt*float64(i))
	}
	g := Goertzel(x, dt, freq)
	amp := PlanFor(n).SpectrumInto(nil, x, Rectangular)
	if d := math.Abs(g - amp[20]); d > 1e-9 {
		t.Fatalf("Goertzel %g vs spectrum bin %g (Δ=%g)", g, amp[20], d)
	}
}

func TestGoertzelSeriesDegenerateArgs(t *testing.T) {
	x := make([]float64, 100)
	cases := []struct {
		name        string
		x           []float64
		winLen, hop int
	}{
		{"zero winLen", x, 0, 10},
		{"negative winLen", x, -5, 10},
		{"zero hop", x, 32, 0},
		{"negative hop", x, 32, -1},
		{"short signal", x[:10], 32, 8},
		{"empty signal", nil, 32, 8},
	}
	for _, c := range cases {
		if got := GoertzelSeries(c.x, 1e-9, 750e3, c.winLen, c.hop); got != nil {
			t.Fatalf("%s: got %d windows, want nil", c.name, len(got))
		}
	}
	// Valid arguments still work.
	if got := GoertzelSeries(x, 1e-9, 750e3, 32, 8); len(got) != 1+(100-32)/8 {
		t.Fatalf("valid series has %d windows", len(got))
	}
}
