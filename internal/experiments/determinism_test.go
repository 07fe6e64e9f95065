package experiments

import (
	"fmt"
	"testing"

	"emtrust/internal/chip"
	"emtrust/internal/parallel"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// The capture engine's core guarantee: per-trace seeds are derived from
// (cfg.Seed, stream, index), never consumed from a shared stream, so a
// set captured with 1, 2 or 8 workers is bit-identical sample for
// sample. Each worker count gets a freshly built chip so stream ids and
// simulator state line up exactly.

// captureAllSets captures the fixed, random and idle sets on a fresh
// infected chip, and the capture-cache misses each set recorded.
func captureAllSets(t *testing.T, cfg Config) (fixed, random, idle *dualSet, misses [3]uint64) {
	t.Helper()
	c, err := infectedChip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := chip.SimulationChannels()
	sets := []func() (*dualSet, error){
		func() (*dualSet, error) { return captureSet(c, cfg, ch, 12, cfg.CaptureCycles) },
		func() (*dualSet, error) {
			return captureRandomSet(c, cfg.Key, ch, randomLanes(c, 12), cfg.CaptureCycles)
		},
		func() (*dualSet, error) { return idleTraces(c, ch, 12, cfg.CaptureCycles) },
	}
	out := make([]*dualSet, len(sets))
	for i, capture := range sets {
		before := chip.Stats().CaptureMisses
		if out[i], err = capture(); err != nil {
			t.Fatal(err)
		}
		misses[i] = chip.Stats().CaptureMisses - before
	}
	return out[0], out[1], out[2], misses
}

func assertSetsEqual(t *testing.T, label string, workers int, want, got *dualSet) {
	t.Helper()
	assertTracesEqual(t, label+"/sensor", workers, want.Sensor.Traces, got.Sensor.Traces)
	assertTracesEqual(t, label+"/probe", workers, want.Probe.Traces, got.Probe.Traces)
}

func assertTracesEqual(t *testing.T, label string, workers int, want, got []*trace.Trace) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s workers=%d: %d traces vs %d", label, workers, len(got), len(want))
	}
	for i := range want {
		a, b := want[i].Samples, got[i].Samples
		if len(a) != len(b) {
			t.Fatalf("%s workers=%d trace %d: %d samples vs %d", label, workers, i, len(b), len(a))
		}
		for s := range a {
			if a[s] != b[s] {
				t.Fatalf("%s workers=%d trace %d sample %d: %v != %v (parallel output must be bit-identical to serial)",
					label, workers, i, s, b[s], a[s])
			}
		}
	}
}

func TestCaptureSetsDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := testConfig()

	restore := parallel.SetMaxWorkers(1)
	serialFixed, serialRandom, serialIdle, _ := captureAllSets(t, cfg)
	restore()

	for _, workers := range []int{2, 8} {
		restore := parallel.SetMaxWorkers(workers)
		fixed, random, idle, _ := captureAllSets(t, cfg)
		restore()
		assertSetsEqual(t, "fixed", workers, serialFixed, fixed)
		assertSetsEqual(t, "random", workers, serialRandom, random)
		assertSetsEqual(t, "idle", workers, serialIdle, idle)
	}
}

// The wide engine adds a second schedule axis: how many lanes one
// batched simulation packs into a word. Sets must be bit-identical
// whether lanes run one at a time or 64 per word — including a partial
// final word — at any worker count. The process-wide capture cache is
// dropped before each run so every configuration actually simulates.
func TestCaptureSetsDeterministicAcrossLaneCounts(t *testing.T) {
	cfg := testConfig()

	capture := func(workers, lanes int) (*dualSet, *dualSet, *dualSet) {
		chip.ResetCaptureCache()
		restoreW := parallel.SetMaxWorkers(workers)
		defer restoreW()
		restoreL := chip.SetBatchLanes(lanes)
		defer restoreL()
		fixed, random, idle, _ := captureAllSets(t, cfg)
		return fixed, random, idle
	}

	oneFixed, oneRandom, oneIdle := capture(1, 1)
	for _, lanes := range []int{5, 64} {
		for _, workers := range []int{1, 4} {
			fixed, random, idle := capture(workers, lanes)
			assertSetsEqual(t, "fixed", workers*1000+lanes, oneFixed, fixed)
			assertSetsEqual(t, "random", workers*1000+lanes, oneRandom, random)
			assertSetsEqual(t, "idle", workers*1000+lanes, oneIdle, idle)
		}
	}
}

// Fig6Spectra's lane set mixes start chips: golden lanes from a clone
// of the dormant chip and one lane from a clone per activated Trojan,
// split over the workers. It must be byte-identical, with the same
// capture-cache misses, at every worker count and lane cap.
func TestFig6SpectraSetDeterministicAcrossWorkersAndLanes(t *testing.T) {
	cfg := testConfig()
	capture := func(workers, lanes int) (*dualSet, uint64) {
		chip.ResetCaptureCache()
		defer parallel.SetMaxWorkers(workers)()
		defer chip.SetBatchLanes(lanes)()
		before := chip.Stats().CaptureMisses
		set, nGolden, err := fig6SpectraSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := nGolden + len(trojan.Kinds()); len(set.Sensor.Traces) != want {
			t.Fatalf("%d traces, want %d golden + %d Trojan", len(set.Sensor.Traces), nGolden, len(trojan.Kinds()))
		}
		return set, chip.Stats().CaptureMisses - before
	}
	want, wantMisses := capture(1, 64)
	for _, workers := range []int{1, 2, 8} {
		for _, lanes := range []int{1, 5, 64} {
			if workers == 1 && lanes == 64 {
				continue
			}
			got, misses := capture(workers, lanes)
			assertSetsEqual(t, fmt.Sprintf("fig6 spectra lanes=%d", lanes), workers, want, got)
			if misses != wantMisses {
				t.Fatalf("workers=%d lanes=%d: %d capture-cache misses, want %d", workers, lanes, misses, wantMisses)
			}
		}
	}
}

// Fixed-stimulus captures never read the chip seed, so a seed sweep
// replays them from the capture cache: seed 2's sets captured after
// seed 1 warmed the cache equal seed 2's sets on a reset cache sample
// for sample, and only the random-plaintext set simulates.
func TestCaptureSetsCacheSharedAcrossSeeds(t *testing.T) {
	seed2 := testConfig()
	seed2.Chip.Seed = 2
	seed1 := testConfig()
	seed1.Chip.Seed = 1

	chip.ResetCaptureCache()
	coldFixed, coldRandom, coldIdle, _ := captureAllSets(t, seed2)
	chip.ResetCaptureCache()
	captureAllSets(t, seed1)
	fixed, random, idle, misses := captureAllSets(t, seed2)
	assertSetsEqual(t, "warm fixed", 0, coldFixed, fixed)
	assertSetsEqual(t, "warm random", 0, coldRandom, random)
	assertSetsEqual(t, "warm idle", 0, coldIdle, idle)
	if misses[0] != 0 || misses[2] != 0 {
		t.Fatalf("seed 2 after seed 1: fixed set missed %d times, idle set %d times, want 0", misses[0], misses[2])
	}
}

// A full experiment driver must be worker-count independent too — this
// catches any leftover shared-stream consumption in the rewired paths.
func TestExperimentDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := testConfig()

	run := func(workers int) *EuclideanResult {
		restore := parallel.SetMaxWorkers(workers)
		defer restore()
		res, err := EuclideanSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		res := run(workers)
		if res.GoldenMeanDistance != serial.GoldenMeanDistance {
			t.Errorf("workers=%d: golden mean %v != serial %v", workers, res.GoldenMeanDistance, serial.GoldenMeanDistance)
		}
		for i, row := range res.Rows {
			want := serial.Rows[i]
			if row.MeanDistance != want.MeanDistance || row.DetectionRate != want.DetectionRate {
				t.Errorf("workers=%d %v: (%v, %v) != serial (%v, %v)",
					workers, row.Trojan, row.MeanDistance, row.DetectionRate, want.MeanDistance, want.DetectionRate)
			}
		}
	}
}
