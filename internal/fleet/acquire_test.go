package fleet

import (
	"fmt"
	"math/rand"
	"testing"
)

// dieRand returns a fresh math/rand generator for one (die, purpose,
// index) draw site: the stream the die's reseeded frand.Rand replicates.
func dieRand(seed int64, die, purpose int, index uint64) *rand.Rand {
	return rand.New(rand.NewSource(dieSeed(seed, die, purpose, index)))
}

// referenceAcquire reproduces Die.acquire through the allocating
// pre-pooling path: one fresh RNG per draw (dieRand), one allocating
// channel.AcquireAt per draw on a pre-scaled waveform, then the
// per-sample combine in the same sequential arithmetic order acquire
// uses. Agreement must be bit-exact — it proves the in-place reseed,
// the buffer reuse, and the scale folding changed nothing.
func referenceAcquire(d *Die, idx int, wave []float64, scale float64, purpose int, index uint64) []float64 {
	cfg := d.pop.cfg
	m := uint64(cfg.TickAverages)
	scaled := wave
	if scale != 1 {
		scaled = make([]float64, len(wave))
		for i, v := range wave {
			scaled[i] = v * scale
		}
	}
	draws := make([][]float64, m)
	for k := uint64(0); k < m; k++ {
		rng := dieRand(cfg.Seed, d.ID, purpose, index*m+k)
		tr := d.channel.AcquireAt(idx, scaled, d.pop.dt, rng)
		draws[k] = append([]float64(nil), tr.Samples...)
	}
	n := len(draws[0])
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		sum, lo, hi := draws[0][j], draws[0][j], draws[0][j]
		for k := uint64(1); k < m; k++ {
			v := draws[k][j]
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if m >= 4 {
			out[j] = (sum - lo - hi) * (1 / float64(m-2))
		} else {
			out[j] = sum * (1 / float64(m))
		}
	}
	return out
}

// TestAcquireTrimEdgeCases pins the averaging-count boundary: one draw
// passes through untouched, two and three draws take the plain mean
// (trimming min and max would leave 0 or 1 samples), and four or more
// switch to the trimmed mean. Each count is checked bit-exactly against
// the allocating reference path.
func TestAcquireTrimEdgeCases(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4, 6} {
		t.Run(fmt.Sprintf("averages=%d", m), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 11
			cfg.Dies = 2
			cfg.Shards = 1
			cfg.TickAverages = m
			cfg.GoldenTraces = 6
			cfg.NullTraces = 8
			cfg.Severity = 2 // bursts and dropouts make the trim visible
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := s.dies[0]
			for round := 0; round < 4; round++ {
				idx := d.fitCount + round
				want := referenceAcquire(d, idx, d.dormant, 1.25, purposeTick, uint64(round))
				got := d.acquire(idx, d.dormant, 1.25, purposeTick, uint64(round))
				if len(got.Samples) != len(want) {
					t.Fatalf("round %d: %d samples, want %d", round, len(got.Samples), len(want))
				}
				for j := range want {
					if got.Samples[j] != want[j] {
						t.Fatalf("round %d sample %d: %v != reference %v (m=%d)",
							round, j, got.Samples[j], want[j], m)
					}
				}
			}
		})
	}
}

// TestAcquireTrimVsPlainMean demonstrates the boundary is real: with
// four or more draws the combined trace is NOT the plain mean of the
// draws whenever the channel glitches a draw, while at three it is
// exactly the plain mean.
func TestAcquireTrimVsPlainMean(t *testing.T) {
	plainMean := func(d *Die, idx int, index uint64) []float64 {
		cfg := d.pop.cfg
		m := uint64(cfg.TickAverages)
		var sum []float64
		for k := uint64(0); k < m; k++ {
			rng := dieRand(cfg.Seed, d.ID, purposeTick, index*m+k)
			tr := d.channel.AcquireAt(idx, d.dormant, d.pop.dt, rng)
			if sum == nil {
				sum = make([]float64, len(tr.Samples))
			}
			for j, v := range tr.Samples {
				sum[j] += v
			}
		}
		for j := range sum {
			sum[j] /= float64(m)
		}
		return sum
	}
	build := func(m int) (*Service, *Die) {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.Dies = 2
		cfg.Shards = 1
		cfg.TickAverages = m
		cfg.GoldenTraces = 6
		cfg.NullTraces = 8
		cfg.Severity = 3
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, s.dies[0]
	}

	_, d4 := build(4)
	diverged := false
	for round := 0; round < 16 && !diverged; round++ {
		idx := d4.fitCount + round
		mean := plainMean(d4, idx, uint64(round))
		got := d4.acquire(idx, d4.dormant, 1, purposeTick, uint64(round))
		for j := range mean {
			if got.Samples[j] != mean[j] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("trimmed mean at TickAverages=4 never diverged from the plain mean across 16 glitchy rounds")
	}
}

// TestAcquireReturnsOwnedBuffer documents the aliasing contract: the
// trace acquire returns is the die-owned accumulator, overwritten by
// the next acquire. Retaining callers (enrollment) must Clone.
func TestAcquireReturnsOwnedBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Dies = 2
	cfg.Shards = 1
	cfg.TickAverages = 2
	cfg.GoldenTraces = 6
	cfg.NullTraces = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s.dies[0]
	t1 := d.acquire(0, d.dormant, 1, purposeTick, 0)
	first := t1.Samples[0]
	t2 := d.acquire(1, d.dormant, 1, purposeTick, 1)
	if &t1.Samples[0] != &t2.Samples[0] {
		t.Fatal("acquire returned distinct buffers; the pooled contract expects the shared accumulator")
	}
	if t1.Samples[0] == first {
		t.Skip("second acquisition coincidentally matched the first sample; aliasing not observable")
	}
}
