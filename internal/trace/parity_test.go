package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emtrust/internal/frand"
)

// countingSource counts the raw words a *math/rand.Rand consumes.
type countingSource struct {
	rand.Source64
	words int
}

func (c *countingSource) Int63() int64   { c.words++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.words++; return c.Source64.Uint64() }

// countingRand is a Rand that is not a *frand.Rand, so the helpers
// take their per-draw fallback through it; it counts the calls.
type countingRand struct {
	r     *rand.Rand
	calls int
}

func (c *countingRand) Float64() float64     { c.calls++; return c.r.Float64() }
func (c *countingRand) NormFloat64() float64 { c.calls++; return c.r.NormFloat64() }
func (c *countingRand) Intn(n int) int       { c.calls++; return c.r.Intn(n) }

func wave(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.8 * math.Sin(float64(i)*0.37)
	}
	return s
}

// TestAcquireScaledIntoParity runs AcquireScaledInto with the bulk
// normals of *frand.Rand and the per-draw fallback of math/rand and of
// a counting wrapper. Samples must be bit-identical and every path must
// consume the same draws: one phase draw plus one normal per sample
// when the channel is noisy.
func TestAcquireScaledIntoParity(t *testing.T) {
	chans := []Acquisition{
		SimulationChannel(0.05),
		SimulationChannel(0),
		MeasurementChannel(0.02, 0.1, 1),
		{NoiseRMS: 0.3, ADCBits: 4, FullScale: 0.5, Gain: 3},
	}
	for ci, a := range chans {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 513} {
			seed := int64(ci*1000 + n)
			fast := frand.NewRand(seed)
			stdSrc := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
			std := rand.New(stdSrc)
			wrapSrc := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
			wrap := &countingRand{r: rand.New(wrapSrc)}
			in := wave(n)
			got := a.AcquireScaledInto(&Trace{}, in, 1.25, 1e-8, fast)
			want := a.AcquireScaledInto(&Trace{}, in, 1.25, 1e-8, std)
			viaWrap := a.AcquireScaledInto(&Trace{}, in, 1.25, 1e-8, wrap)
			ctx := fmt.Sprintf("channel %d n=%d", ci, n)
			for i := range want.Samples {
				g, w, v := got.Samples[i], want.Samples[i], viaWrap.Samples[i]
				if math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s sample %d: fast %v, math/rand %v, wrapped %v", ctx, i, g, w, v)
				}
			}
			wantCalls := 1
			if a.NoiseRMS > 0 {
				wantCalls += n
			}
			if wrap.calls != wantCalls {
				t.Fatalf("%s: %d draws, want %d", ctx, wrap.calls, wantCalls)
			}
			if stdSrc.words != wrapSrc.words {
				t.Fatalf("%s: math/rand consumed %d words, wrapped %d", ctx, stdSrc.words, wrapSrc.words)
			}
			if fast.Uint64() != std.Uint64() {
				t.Fatalf("%s: fast path consumed a different number of draws", ctx)
			}
		}
	}
}

// TestAcquireScaledIntoAliasParity pins the aliasing rule: dst.Samples
// may be the clean waveform itself, because every output sample is
// written only after its input sample is read.
func TestAcquireScaledIntoAliasParity(t *testing.T) {
	for _, a := range []Acquisition{SimulationChannel(0.05), MeasurementChannel(0.02, 0.1, 1)} {
		for _, n := range []int{1, 256, 257, 700} {
			want := a.AcquireScaledInto(&Trace{}, wave(n), 0.5, 1e-8, frand.NewRand(4))
			buf := wave(n)
			got := a.AcquireScaledInto(&Trace{Samples: buf}, buf, 0.5, 1e-8, frand.NewRand(4))
			if &got.Samples[0] != &buf[0] {
				t.Fatal("dst buffer not reused")
			}
			for i := range want.Samples {
				if got.Samples[i] != want.Samples[i] {
					t.Fatalf("n=%d sample %d: aliased %v, separate %v", n, i, got.Samples[i], want.Samples[i])
				}
			}
		}
	}
}

// TestHelpersBulkParity checks Normals and FirstBelow give the same
// values and positions through *frand.Rand and through math/rand.
func TestHelpersBulkParity(t *testing.T) {
	fast := frand.NewRand(77)
	std := rand.New(rand.NewSource(77))
	a, b := make([]float64, 700), make([]float64, 700)
	for round := 0; round < 5; round++ {
		Normals(fast, a)
		Normals(std, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d normal %d: %v != %v", round, i, a[i], b[i])
			}
		}
		for _, p := range []float64{0.001, 0.5, 0, math.NaN(), 1} {
			if g, w := FirstBelow(fast, p, 300), FirstBelow(std, p, 300); g != w {
				t.Fatalf("round %d p %v: FirstBelow %d != %d", round, p, g, w)
			}
		}
	}
	if fast.Uint64() != std.Uint64() {
		t.Fatal("streams misaligned")
	}
}

// TestQuantizeWideADC pins the outcome of converter widths past 63
// bits: they quantize like 63 bits instead of returning NaN (1<<64
// levels overflowed to zero), and an infinite full scale disables the
// converter instead of turning every sample into NaN.
func TestQuantizeWideADC(t *testing.T) {
	in := []float64{0.3, -0.7, 1e-12, 0, 2, -2}
	acquire := func(a Acquisition) []float64 {
		return a.Acquire(in, 1e-8, rand.New(rand.NewSource(1))).Samples
	}
	ref63 := acquire(Acquisition{ADCBits: 63, FullScale: 1, Gain: 1})
	for _, tc := range []struct {
		name string
		a    Acquisition
		want []float64
	}{
		{"64 bits", Acquisition{ADCBits: 64, FullScale: 1, Gain: 1}, ref63},
		{"1000 bits", Acquisition{ADCBits: 1000, FullScale: 1, Gain: 1}, ref63},
		{"infinite full scale", Acquisition{ADCBits: 8, FullScale: math.Inf(1), Gain: 1}, in},
	} {
		got := acquire(tc.a)
		for i, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: sample %d = %v", tc.name, i, v)
			}
			if v != tc.want[i] {
				t.Fatalf("%s: sample %d = %v, want %v", tc.name, i, v, tc.want[i])
			}
		}
	}
	// 63 bits: the clipped samples sit on the rails, the rest within a
	// grid step of their input.
	for i, v := range ref63 {
		want := math.Max(-1, math.Min(1, in[i]))
		if math.Abs(v-want) > 0x1p-61 {
			t.Fatalf("63 bits: sample %d = %v, want ≈ %v", i, v, want)
		}
	}
}
