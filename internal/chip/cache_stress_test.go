package chip

import (
	"sync"
	"testing"

	"emtrust/internal/trojan"
)

// stressOrbit walks a fresh chip down a fixed-stimulus capture chain —
// the path that consults the capture cache — and folds every sample
// into one checksum. Chips built from the same Config are
// deterministic, so every caller must come back with the same value no
// matter how the replay caches behaved in between.
func stressOrbit(t *testing.T, captures int) float64 {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetTrojan(trojan.T1AMLeaker, true); err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 16)
	caps, err := c.CaptureChain(pt, testKey, batchCycles, captures)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, cap := range caps {
		for _, v := range cap.Sensor {
			sum += v
		}
	}
	return sum
}

// TestCacheStressConcurrent hammers the process-wide build and capture
// caches from many goroutines while another goroutine repeatedly drops
// the capture cache, and checks the two properties the caches promise:
// results never depend on cache contents (every worker's checksum is
// identical), and the hit/miss counters actually move. Run under -race
// this doubles as the locking proof for the PR-6 replay caches.
func TestCacheStressConcurrent(t *testing.T) {
	// Warm the build cache so every worker's New is a guaranteed hit.
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	before := Stats()

	const workers = 8
	const captures = 10
	want := stressOrbit(t, captures)

	var wg sync.WaitGroup
	results := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = stressOrbit(t, captures)
		}(w)
	}
	// Concurrent wholesale evictions: correctness must not depend on
	// residency, so dropping everything mid-flight changes nothing but
	// the hit rate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			ResetCaptureCache()
		}
	}()
	// Concurrent overflows: one-step chains of distinct plaintexts fill
	// the cache past its cap, so full-cache drops race the workers'
	// lookups and stores.
	overflow := infected(t).Clone()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, pt := range laneTexts(0, maxCaptureEntries+64) {
			if _, err := overflow.CaptureChain(pt, testKey, fillCycles, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for w, got := range results {
		if got != want {
			t.Fatalf("worker %d checksum %v != %v: cache state leaked into results", w, got, want)
		}
	}

	// With the evictions finished, one more pass misses-and-fills and a
	// second identical pass must ride entirely on replays.
	_ = stressOrbit(t, captures)
	mid := Stats()
	_ = stressOrbit(t, captures)
	after := Stats()

	if after.BuildHits <= before.BuildHits {
		t.Fatalf("build cache recorded no hits: before %+v after %+v", before, after)
	}
	if mid.CaptureMisses <= before.CaptureMisses {
		t.Fatalf("capture cache recorded no misses: before %+v mid %+v", before, mid)
	}
	if after.CaptureHits <= mid.CaptureHits {
		t.Fatalf("identical replay pass recorded no capture hits: mid %+v after %+v", mid, after)
	}
	if after.BuildMisses != before.BuildMisses {
		t.Fatalf("warmed build cache missed: before %+v after %+v", before, after)
	}
}
