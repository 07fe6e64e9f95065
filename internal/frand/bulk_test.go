package frand

import (
	"math"
	"math/rand"
	"testing"
)

// bulkLens cross the ring's run edges: math/rand hands out 334 words
// (feeds 333→0), then 273 (feeds 606→334), then repeats.
var bulkLens = []int{0, 1, 333, 334, 335, 606, 607, 608, 2048}

// bulkPs covers the Bernoulli edge cases: never (0, negative, NaN),
// always (+Inf, 1, and 1-1e-17, which rounds to 1), and rare.
var bulkPs = []float64{0, -1, math.NaN(), math.Inf(1), 1, 1 - 1e-17, 1e-4, 0.002, 0.5}

// firstBelowRef is the loop FirstBelow replaces, on math/rand.
func firstBelowRef(r *rand.Rand, p float64, n int) int {
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			return i
		}
	}
	return n
}

// checkAligned fails unless got and want produce the same next values,
// proving the bulk call consumed exactly the draws of the scalar loop.
func checkAligned(t *testing.T, got *Rand, want *rand.Rand, ctx string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: stream misaligned after bulk draw (%d: %d != %d)", ctx, i, g, w)
		}
	}
}

func TestNormFloat64sMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds {
		got := NewRand(seed)
		want := rand.New(rand.NewSource(seed))
		for _, n := range bulkLens {
			// A scalar draw first, so successive bulk calls start at
			// different offsets within a run.
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 %v != %v", seed, g, w)
			}
			dst := make([]float64, n)
			got.NormFloat64s(dst)
			for i, g := range dst {
				if w := want.NormFloat64(); g != w {
					t.Fatalf("seed %d len %d draw %d: %v != %v", seed, n, i, g, w)
				}
			}
		}
		checkAligned(t, got, want, "NormFloat64s")
	}
}

func TestFirstBelowMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds {
		for _, p := range bulkPs {
			got := NewRand(seed)
			want := rand.New(rand.NewSource(seed))
			for _, n := range bulkLens {
				// Scan the whole length, restarting after each success,
				// as the degrade stages do.
				for i := 0; i < n; i++ {
					g := got.FirstBelow(p, n-i)
					if w := firstBelowRef(want, p, n-i); g != w {
						t.Fatalf("seed %d p %v len %d from %d: FirstBelow %d != %d", seed, p, n, i, g, w)
					}
					i += g
				}
				if g, w := got.Intn(97), want.Intn(97); g != w {
					t.Fatalf("seed %d p %v: Intn %d != %d", seed, p, g, w)
				}
			}
			checkAligned(t, got, want, "FirstBelow")
		}
	}
}

// TestBulkFirstBelowNeverConsumesAll pins the p ≤ 0 and NaN contract: no
// test succeeds, yet every one of the n draws is consumed.
func TestBulkFirstBelowNeverConsumesAll(t *testing.T) {
	for _, p := range []float64{0, math.Copysign(0, -1), -1, math.Inf(-1), math.NaN()} {
		for _, n := range bulkLens {
			got := NewRand(5)
			want := rand.New(rand.NewSource(5))
			if k := got.FirstBelow(p, n); k != n {
				t.Fatalf("p %v: FirstBelow(p, %d) = %d, want %d", p, n, k, n)
			}
			for i := 0; i < n; i++ {
				want.Float64()
			}
			checkAligned(t, got, want, "p never")
		}
	}
}

// TestBulkReseedMidRun reseeds a generator part-way through a run and
// interleaves every bulk and scalar method, as the fleet's per-draw
// reseeding does.
func TestBulkReseedMidRun(t *testing.T) {
	got := NewRand(1)
	dst := make([]float64, 97)
	for trial := 0; trial < 40; trial++ {
		seed := int64(trial*7919 - 3)
		got.NormFloat64s(dst[:trial*11%97]) // leave the cursor mid-run
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for round := 0; round < 6; round++ {
			got.NormFloat64s(dst)
			for i, g := range dst {
				if w := want.NormFloat64(); g != w {
					t.Fatalf("trial %d round %d draw %d: %v != %v", trial, round, i, g, w)
				}
			}
			if g, w := got.FirstBelow(0.01, 300), firstBelowRef(want, 0.01, 300); g != w {
				t.Fatalf("trial %d round %d: FirstBelow %d != %d", trial, round, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("trial %d round %d: NormFloat64 %v != %v", trial, round, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("trial %d round %d: Intn %d != %d", trial, round, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("trial %d round %d: Float64 %v != %v", trial, round, g, w)
			}
		}
	}
}

// TestBulkResampleBoundary checks by brute force that Float64 rounds
// an Int63 value x to 1, and so resamples it, exactly when
// x ≥ resampleAt.
func TestBulkResampleBoundary(t *testing.T) {
	for x := uint64(resampleAt - 4096); x < 1<<63; x++ {
		if one := float64(x)/(1<<63) == 1; one != (x >= resampleAt) {
			t.Fatalf("x = 2^63-%d: Float64 rounds to 1 is %v", uint64(1<<63)-x, one)
		}
	}
}

// TestBulkThresholdExact checks belowThreshold against the float test
// it replaces: x < t must equal float64(x)/2⁶³ < p for every x Float64
// does not resample. Since both sides are monotone in x, that holds iff
// t-1 passes and t fails; the test also walks a window around t.
func TestBulkThresholdExact(t *testing.T) {
	ps := []float64{
		math.SmallestNonzeroFloat64, 1e-300, 1e-20, 1.0 / (1 << 63), 1.5 / (1 << 63),
		1e-4, 0.002, 0.1, 1.0 / 3, 0.5, 0x1p-10, 0x1p53 / 0x1p63, (0x1p53 + 1) / 0x1p63,
		0.999, 1 - 0x1p-52, 1 - 0x1p-53, 1 - 0x1p-54, 1 - 1e-17, 1, 2, math.MaxFloat64,
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		ps = append(ps, r.Float64(), math.Ldexp(r.Float64(), -r.Intn(70)))
	}
	for _, p := range ps {
		th := belowThreshold(p)
		for x := th - min(th, 1100); x < min(th+1100, resampleAt); x++ {
			if pass := float64(x)/(1<<63) < p; pass != (x < th) {
				t.Fatalf("p %v: threshold %d, but x = %d passes = %v", p, th, x, pass)
			}
		}
	}
}

// TestBulkFirstBelowResamplePath forces a word that Float64 would round to
// 1 into the ring and checks FirstBelow resamples it like the scalar
// loop (itself checked against math/rand above).
func TestBulkFirstBelowResamplePath(t *testing.T) {
	for _, p := range []float64{0.5, 1, math.Inf(1), 1e-4, 0} {
		for _, word := range []uint64{resampleAt, 1<<63 - 1, 1<<64 - 1} {
			a := NewRand(9)
			a.Float64() // leave the cursor mid-run
			a.src.vec[a.src.feed-1] = word
			a.src.vec[a.src.feed-3] = word // two in a row, one draw later
			b := *a
			for i := 0; i < 4; i++ {
				got := a.FirstBelow(p, 1)
				want := 1
				if b.Float64() < p {
					want = 0
				}
				if got != want {
					t.Fatalf("p %v word %#x draw %d: FirstBelow %d, Float64 loop %d", p, word, i, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("p %v word %#x: streams misaligned after a resample", p, word)
			}
		}
	}
}

// FuzzBulkDraws checks the bulk draws against math/rand for arbitrary
// seeds, lengths and probabilities.
func FuzzBulkDraws(f *testing.F) {
	f.Add(int64(1), 512, 0.002)
	f.Add(int64(-9034), 607, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, n int, p float64) {
		n = int(uint(n) % 4096)
		got := NewRand(seed)
		want := rand.New(rand.NewSource(seed))
		dst := make([]float64, n)
		got.NormFloat64s(dst)
		for i, g := range dst {
			if w := want.NormFloat64(); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("NormFloat64s draw %d: %v != %v", i, g, w)
			}
		}
		for i := 0; i < n; i++ {
			g := got.FirstBelow(p, n-i)
			if w := firstBelowRef(want, p, n-i); g != w {
				t.Fatalf("FirstBelow(%v, %d) = %d, want %d", p, n-i, g, w)
			}
			i += g
		}
		checkAligned(t, got, want, "fuzz")
	})
}
