package experiments

import (
	"runtime"
	"testing"
	"unsafe"

	"emtrust/internal/chip"
	"emtrust/internal/frand"
)

// TestCaptureSetAllocs pins the fixed-stimulus set's memory discipline:
// once the capture cache holds its chain, a 60-trace captureSet on dual
// channels allocates per trace less than its two sample slices plus one
// generator, so no trace gets a generator of its own.
func TestCaptureSetAllocs(t *testing.T) {
	cfg := testConfig()
	c, err := infectedChip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := chip.SimulationChannels()
	const n = 60
	if _, err := captureSet(c, cfg, ch, n, cfg.CaptureCycles); err != nil { // warm the capture cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	set, err := captureSet(c, cfg, ch, n, cfg.CaptureCycles)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	samples := len(set.Sensor.Traces[0].Samples) + len(set.Probe.Traces[0].Samples)
	bound := samples*int(unsafe.Sizeof(float64(0))) + int(unsafe.Sizeof(frand.Rand{}))
	if perTrace := float64(after.TotalAlloc-before.TotalAlloc) / n; perTrace >= float64(bound) {
		t.Fatalf("a cache-replayed %d-trace set allocates %.0f bytes per trace, want below %d (its sample slices and one generator)",
			n, perTrace, bound)
	}
}
