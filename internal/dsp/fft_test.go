package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

// fft is the forward complex transform, kept test-side as the reference
// the planned spectrum is checked against: the same radix-2 butterflies
// and twiddle tables Plan runs at half size, over the full padded
// length. len(x) must be a power of two.
func fft(x []complex128) { cplanFor(len(x)).transform(x) }

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// The FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	fft(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > tol {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSinusoidBin(t *testing.T) {
	// A pure sinusoid at bin k must concentrate its energy at bins k and
	// N-k with magnitude N/2 each.
	const n = 256
	const k = 17
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*float64(k)*float64(i)/n), 0)
	}
	fft(x)
	for i, v := range x {
		mag := cmplx.Abs(v)
		switch i {
		case k, n - k:
			if math.Abs(mag-n/2) > 1e-6 {
				t.Errorf("bin %d magnitude = %g, want %g", i, mag, float64(n)/2)
			}
		default:
			if mag > 1e-6 {
				t.Errorf("bin %d magnitude = %g, want ~0", i, mag)
			}
		}
	}
}

func TestFFTPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of non-power-of-two length did not panic")
		}
	}()
	fft(make([]complex128, 12))
}

// TestFFTParseval checks energy conservation for random signals
// (property-based).
func TestFFTParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		timeEnergy := 0.0
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		fft(x)
		freqEnergy := 0.0
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		return almostEqual(timeEnergy, freqEnergy, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFFTLinearity checks FFT(a*x + b*y) == a*fft(x) + b*fft(y).
func TestFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		x := make([]complex128, n)
		y := make([]complex128, n)
		mix := make([]complex128, n)
		a := complex(rng.NormFloat64(), 0)
		b := complex(rng.NormFloat64(), 0)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			mix[i] = a*x[i] + b*y[i]
		}
		fft(x)
		fft(y)
		fft(mix)
		for i := range mix {
			want := a*x[i] + b*y[i]
			if cmplx.Abs(mix[i]-want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// naiveDFT is the O(n^2) textbook transform the FFT must match.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			th := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, th))
		}
		out[k] = sum
	}
	return out
}

// The cached-twiddle FFT must match the naive transform to 1e-12 on
// random inputs across sizes.
func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := make([]complex128, n)
		copy(got, x)
		fft(got)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-12*(1+cmplx.Abs(want[k])) {
				t.Fatalf("n=%d bin %d: FFT %v, naive %v", n, k, got[k], want[k])
			}
		}
	}
}
