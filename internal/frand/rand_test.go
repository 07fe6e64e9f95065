package frand

import (
	"math/rand"
	"testing"
)

// TestRandMatchesMathRand drives every Rand method the repo draws from
// against *math/rand.Rand with the same seeds, interleaving methods so
// stream consumption stays aligned — any divergence in values consumed
// per call would desynchronize everything after it and fail loudly.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds {
		got := NewRand(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 4000; i++ {
			switch i % 7 {
			case 0:
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Intn(97), want.Intn(97); g != w {
					t.Fatalf("seed %d draw %d: Intn(97) %d != %d", seed, i, g, w)
				}
			case 3:
				if g, w := got.Intn(64), want.Intn(64); g != w {
					t.Fatalf("seed %d draw %d: Intn(64) %d != %d", seed, i, g, w)
				}
			case 4:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, w)
				}
			case 5:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, g, w)
				}
			case 6:
				if g, w := got.Int63n(12345), want.Int63n(12345); g != w {
					t.Fatalf("seed %d draw %d: Int63n %d != %d", seed, i, g, w)
				}
			}
		}
		// Reseed in place and confirm realignment.
		got.Seed(seed + 1)
		want = rand.New(rand.NewSource(seed + 1))
		for i := 0; i < 64; i++ {
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d post-reseed draw %d: %v != %v", seed, i, g, w)
			}
		}
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func BenchmarkNormFloat64MathRand(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func BenchmarkNormFloat64s(b *testing.B) {
	r := NewRand(1)
	dst := make([]float64, 512)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		r.NormFloat64s(dst)
	}
}

func BenchmarkFirstBelow(b *testing.B) {
	r := NewRand(1)
	b.SetBytes(512)
	for i := 0; i < b.N; i++ {
		for k := 0; k < 512; k++ {
			k += r.FirstBelow(0.002, 512-k)
		}
	}
}
