package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// referenceSpectrum is the one-sided amplitude spectrum computed the
// long way: windowed copy, zero-pad, full-size complex transform, Hypot
// magnitudes.
func referenceSpectrum(x []float64, w Window) []float64 {
	wv := windowFor(w, len(x))
	n := NextPow2(len(x))
	spec := make([]complex128, n)
	for i, v := range x {
		spec[i] = complex(v*wv.coef[i], 0)
	}
	fft(spec)
	half := n/2 + 1
	amp := make([]float64, half)
	scale := 2 / (float64(len(x)) * wv.gain)
	for k := 0; k < half; k++ {
		a := math.Hypot(real(spec[k]), imag(spec[k])) * scale
		if k == 0 || k == n/2 {
			a /= 2
		}
		amp[k] = a
	}
	return amp
}

var planSizes = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

func bitsLen(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// TestSpectrumIntoMatchesReference bounds the planned one-sided
// spectrum against referenceSpectrum across sizes and windows.
func TestSpectrumIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range planSizes {
		for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := referenceSpectrum(x, w)
			got := PlanFor(n).SpectrumInto(nil, x, w)
			if len(got) != len(want) {
				t.Fatalf("n=%d %v: %d bins, want %d", n, w, len(got), len(want))
			}
			norm := 0.0
			for _, a := range want {
				if a > norm {
					norm = a
				}
			}
			tol := 1e-12 * norm * float64(1+bitsLen(n))
			for k := range want {
				if d := math.Abs(got[k] - want[k]); d > tol {
					t.Fatalf("n=%d %v bin %d: |Δ|=%g > %g", n, w, k, d, tol)
				}
			}
		}
	}
}

// TestPlanDirtyBufferReuse: passing a dst full of garbage from a
// previous, larger transform must not leak into the result.
func TestPlanDirtyBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	cleanAmp := PlanFor(256).SpectrumInto(nil, x, Hann)
	dirtyAmp := make([]float64, 2048)
	for i := range dirtyAmp {
		dirtyAmp[i] = math.NaN()
	}
	gotAmp := PlanFor(256).SpectrumInto(dirtyAmp, x, Hann)
	if &gotAmp[0] != &dirtyAmp[0] {
		t.Fatal("SpectrumInto did not reuse the caller's buffer")
	}
	for k := range cleanAmp {
		if gotAmp[k] != cleanAmp[k] {
			t.Fatalf("amp bin %d: dirty reuse changed result", k)
		}
	}
}

// TestSpectrumIntoAliasedDst: dst sharing x's backing array is
// documented as safe — every read of x precedes the first write of dst.
func TestSpectrumIntoAliasedDst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	orig := make([]float64, 128)
	for i := range orig {
		orig[i] = rng.NormFloat64()
	}
	want := PlanFor(128).SpectrumInto(nil, orig, Hann)
	x := append([]float64(nil), orig...)
	got := PlanFor(128).SpectrumInto(x[:0], x, Hann)
	if &got[0] != &x[0] {
		t.Fatal("aliased dst was not reused")
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("bin %d: aliased dst changed result: %v vs %v", k, got[k], want[k])
		}
	}
}

// TestPlanConcurrentStress hammers one shared Plan from many goroutines
// (the monitor pool and fleet workers share transform sizes) and pins
// the output bit-identical to the serial result at any worker count.
// Under -race this doubles as the plan-cache concurrency gate.
func TestPlanConcurrentStress(t *testing.T) {
	const n = 1024
	rng := rand.New(rand.NewSource(14))
	inputs := make([][]float64, 16)
	for i := range inputs {
		inputs[i] = make([]float64, n)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	p := PlanFor(n)
	serial := make([][]float64, len(inputs))
	for i, x := range inputs {
		serial[i] = p.SpectrumInto(nil, x, Hann)
	}
	for _, workers := range []int{2, 8, 32} {
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var amp []float64
				for iter := 0; iter < 50; iter++ {
					i := (w + iter) % len(inputs)
					amp = p.SpectrumInto(amp, inputs[i], Hann)
					for k := range serial[i] {
						if amp[k] != serial[i][k] {
							errs <- "spectrum diverged under concurrency"
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("workers=%d: %s", workers, e)
		}
	}
}

func TestPlanForPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PlanFor(12) must panic")
		}
	}()
	PlanFor(12)
}

func TestPlanSizeOne(t *testing.T) {
	p := PlanFor(1)
	amp := p.SpectrumInto(nil, []float64{2.5}, Hann)
	if len(amp) != 1 {
		t.Fatalf("size-1 spectrum has %d bins", len(amp))
	}
	if amp2 := p.SpectrumInto(nil, nil, Hann); len(amp2) != 0 {
		t.Fatal("empty input must produce no bins")
	}
}

// FuzzSpectrumInto checks dst-aliasing and dirty-buffer reuse against
// referenceSpectrum on arbitrary signals/windows.
func FuzzSpectrumInto(f *testing.F) {
	f.Add(uint16(100), uint8(1), int64(4))
	f.Add(uint16(4000), uint8(3), int64(5))
	f.Fuzz(func(t *testing.T, nRaw uint16, wRaw uint8, seed int64) {
		n := int(nRaw)%4096 + 1
		w := Window(wRaw % 4)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := referenceSpectrum(x, w)
		norm := 0.0
		for _, a := range want {
			if a > norm {
				norm = a
			}
		}
		tol := 1e-11 * (1 + norm) * float64(1+bitsLen(NextPow2(n)))
		p := PlanForLength(n)
		// Aliased destination: dst shares x's backing array.
		got := p.SpectrumInto(x[:0], x, w)
		for k := range want {
			if d := math.Abs(got[k] - want[k]); d > tol {
				t.Fatalf("n=%d w=%v bin %d (aliased): |Δ|=%g > %g", n, w, k, d, tol)
			}
		}
	})
}
