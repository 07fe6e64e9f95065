package chip

import (
	"testing"

	"emtrust/internal/trojan"
)

// resetCaptureCache empties the process-wide capture cache so a test
// exercises the simulation paths rather than replays.
func resetCaptureCache() { ResetCaptureCache() }

const batchCycles = 16

// activeClone returns an independent clone of the infected chip with
// the given Trojan armed, so its state genuinely evolves from capture
// to capture (no fixed point, no trivial cache hits).
func activeClone(t *testing.T, kind trojan.Kind) *Chip {
	t.Helper()
	c, err := infected(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetTrojan(kind, true); err != nil {
		t.Fatal(err)
	}
	return c
}

func sameWave(t *testing.T, step string, a, b *Capture) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil capture", step)
	}
	if len(a.Sensor) != len(b.Sensor) || len(a.Probe) != len(b.Probe) || a.Dt != b.Dt {
		t.Fatalf("%s: capture shapes differ", step)
	}
	for i := range a.Sensor {
		if a.Sensor[i] != b.Sensor[i] {
			t.Fatalf("%s: sensor sample %d: %v != %v", step, i, a.Sensor[i], b.Sensor[i])
		}
		if a.Probe[i] != b.Probe[i] {
			t.Fatalf("%s: probe sample %d: %v != %v", step, i, a.Probe[i], b.Probe[i])
		}
	}
}

// orbitSnapshots advances the chip through count captures of a fixed
// plaintext and returns the snapshot before each, giving genuinely
// distinct per-lane starting states on an active-Trojan chip.
func orbitSnapshots(t *testing.T, c *Chip, pt []byte, count int) []*Snapshot {
	t.Helper()
	snaps := make([]*Snapshot, count)
	for i := range snaps {
		snaps[i] = c.Snapshot()
		if _, err := c.CapturePT(pt, testKey, batchCycles); err != nil {
			t.Fatal(err)
		}
	}
	return snaps
}

// TestCaptureBatchMatchesScalar pins the wide engine's end-to-end
// contract: every lane of a batched capture — divergent plaintexts AND
// divergent starting states, with a digital Trojan and the analog A2
// running — must be bit-identical to an independent scalar capture from
// the same snapshot, and the batch must not move the chip.
func TestCaptureBatchMatchesScalar(t *testing.T) {
	resetCaptureCache()
	c := activeClone(t, trojan.T1AMLeaker)
	c.EnableA2(true)
	basePT := make([]byte, 16)
	snaps := orbitSnapshots(t, c, basePT, 5)

	const lanes = 9
	pts := make([][]byte, lanes)
	laneSnaps := make([]*Snapshot, lanes)
	for i := range pts {
		pt := make([]byte, 16)
		pt[0] = byte(37 * i)
		pt[15] = byte(i)
		pts[i] = pt
		laneSnaps[i] = snaps[i%len(snaps)]
	}

	before := c.Snapshot()
	caps, err := c.CaptureBatchFrom(laneSnaps, pts, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if !c.sim.State().ValuesEqual(before.sim) || *c.a2 != before.a2 {
		t.Fatal("batched capture moved the chip's state")
	}

	scalar, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		scalar.Restore(laneSnaps[i])
		want, err := scalar.CapturePT(pts[i], testKey, batchCycles)
		if err != nil {
			t.Fatal(err)
		}
		sameWave(t, "lane", caps[i], want)
	}
}

// TestCaptureBatchLaneCountInvariance pins the determinism contract:
// the same batch split into 1-, 3- or 64-lane wide runs (partial final
// chunks included) produces byte-identical captures.
func TestCaptureBatchLaneCountInvariance(t *testing.T) {
	c := activeClone(t, trojan.T4PowerHog)
	snaps := orbitSnapshots(t, c, make([]byte, 16), 4)
	const n = 7
	pts := make([][]byte, n)
	laneSnaps := make([]*Snapshot, n)
	for i := range pts {
		pt := make([]byte, 16)
		pt[3] = byte(11 * i)
		pts[i] = pt
		laneSnaps[i] = snaps[i%len(snaps)]
	}
	var got [][]*Capture
	for _, lanes := range []int{64, 3, 1} {
		resetCaptureCache()
		restore := SetBatchLanes(lanes)
		caps, err := c.CaptureBatchFrom(laneSnaps, pts, testKey, batchCycles)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, caps)
	}
	for i := 0; i < n; i++ {
		sameWave(t, "lanes=3", got[0][i], got[1][i])
		sameWave(t, "lanes=1", got[0][i], got[2][i])
	}
}

// TestCaptureBatchReferenceFallback pins the scalar fallback: a
// reference-engine chip batches through per-group scalar captures, and
// its waveforms match the compiled chip's wide-engine batch.
func TestCaptureBatchReferenceFallback(t *testing.T) {
	resetCaptureCache()
	cfg := DefaultConfig()
	cfg.ReferenceSim = true
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetTrojan(trojan.T2LeakageCurrent, true); err != nil {
		t.Fatal(err)
	}
	// The compiled chip must start from the same pre-state as the fresh
	// reference chip, so build it fresh too: the shared infected chip's
	// latch state depends on which tests captured on it earlier, and a
	// clone of it would make this comparison shuffle-order dependent.
	cmp, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := cmp.SetTrojan(trojan.T2LeakageCurrent, true); err != nil {
		t.Fatal(err)
	}

	pts := make([][]byte, 3)
	for i := range pts {
		pt := make([]byte, 16)
		pt[7] = byte(i + 1)
		pts[i] = pt
	}
	refCaps, err := ref.CaptureBatch(pts, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	cmpCaps, err := cmp.CaptureBatch(pts, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		sameWave(t, "engine", refCaps[i], cmpCaps[i])
	}
}

// TestCaptureBatchDedup: lanes with identical (state, plaintext) share
// one simulation and one result object.
func TestCaptureBatchDedup(t *testing.T) {
	resetCaptureCache()
	c := activeClone(t, trojan.T1AMLeaker)
	pt := make([]byte, 16)
	other := make([]byte, 16)
	other[0] = 0xff
	caps, err := c.CaptureBatch([][]byte{pt, other, pt}, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] != caps[2] {
		t.Fatal("identical lanes returned distinct captures")
	}
	if caps[0] == caps[1] {
		t.Fatal("distinct plaintexts returned the same capture")
	}
	if caps[0].Seq() == caps[1].Seq() {
		t.Fatal("distinct captures share a Seq")
	}
}

// TestCaptureChainMatchesSerial pins CaptureChain's contract on an
// evolving chip: waveforms and the state trajectory are bit-identical
// to serial CapturePT calls, and a replayed chain (cache hits) returns
// the same results and final state.
func TestCaptureChainMatchesSerial(t *testing.T) {
	resetCaptureCache()
	c := activeClone(t, trojan.T3CDMALeaker)
	start := c.Snapshot()
	pt := make([]byte, 16)
	pt[5] = 0xa5
	const count = 5

	serial, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	serial.Restore(start)
	want := make([]*Capture, count)
	for j := range want {
		cap, err := serial.CapturePT(pt, testKey, batchCycles)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = &Capture{
			Sensor: append([]float64(nil), cap.Sensor...),
			Probe:  append([]float64(nil), cap.Probe...),
			Dt:     cap.Dt,
		}
	}

	chained, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	chained.Restore(start)
	got, err := chained.CaptureChain(pt, testKey, batchCycles, count)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		sameWave(t, "chain", got[j], want[j])
	}
	if !chained.sim.State().ValuesEqual(serial.sim.State()) {
		t.Fatal("chain and serial capture end in different states")
	}
	if chained.sim.Cycle() != serial.sim.Cycle() {
		t.Fatalf("chain cycle %d != serial cycle %d", chained.sim.Cycle(), serial.sim.Cycle())
	}

	replay, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	replay.Restore(start)
	again, err := replay.CaptureChain(pt, testKey, batchCycles, count)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for j := range again {
		sameWave(t, "replayed chain", again[j], want[j])
		if again[j] == got[j] {
			hits++
		}
	}
	if hits != count {
		t.Fatalf("replayed chain hit the cache on %d/%d steps", hits, count)
	}
	if !replay.sim.State().ValuesEqual(serial.sim.State()) {
		t.Fatal("replayed chain ends in a different state")
	}
}

// TestFixedPointMemo pins the dormant-chip fast path: from the second
// identical capture on, CapturePT and CaptureIdle return the same
// stable *Capture while still advancing the cycle counter, and a
// different stimulus breaks the memo.
func TestFixedPointMemo(t *testing.T) {
	c, err := golden(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 16)
	// Capture 1 moves the AES registers off the reset state; capture 2
	// is the first fixed-point traversal and creates the memo.
	if _, err := c.CapturePT(pt, testKey, batchCycles); err != nil {
		t.Fatal(err)
	}
	cycle := c.sim.Cycle()
	c2, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c3 {
		t.Fatal("repeated fixed-point captures returned distinct objects")
	}
	if got := c.sim.Cycle(); got != cycle+2*batchCycles {
		t.Fatalf("cycle = %d, want %d", got, cycle+2*batchCycles)
	}
	if len(c2.Tiles) == 0 {
		t.Fatal("memoized capture lost its Tiles")
	}
	// A replay must match what a fresh simulation of the same capture
	// produces: clear the memo and re-simulate.
	c.memoPT = nil
	fresh, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	sameWave(t, "memo vs fresh", fresh, c2)

	other := make([]byte, 16)
	other[0] = 1
	c4, err := c.CapturePT(other, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if c4 == c3 {
		t.Fatal("different plaintext replayed the memo")
	}

	if _, err := c.CaptureIdle(batchCycles); err != nil {
		t.Fatal(err)
	}
	i2, err := c.CaptureIdle(batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	i3, err := c.CaptureIdle(batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if i2 != i3 {
		t.Fatal("repeated idle captures returned distinct objects")
	}
	c.memoIdle = nil
	freshIdle, err := c.CaptureIdle(batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	sameWave(t, "idle memo vs fresh", freshIdle, i2)
}

// TestCaptureEdgeCases pins the degenerate-argument contract of every
// capture entry point: a window without a clock cycle is an error, an
// encryption window of one cycle cannot hold the load edge and errors
// too, and a chain of count <= 0 is clamped to nil. None of them may
// panic.
func TestCaptureEdgeCases(t *testing.T) {
	c, err := golden(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 16)
	scalar := func(cap *Capture, err error) ([]*Capture, error) {
		if cap == nil {
			return nil, err
		}
		return []*Capture{cap}, err
	}
	cases := []struct {
		name    string
		run     func(cycles int) ([]*Capture, error)
		okAtOne bool // a one-cycle window is a valid capture
	}{
		{"CapturePT", func(cycles int) ([]*Capture, error) { return scalar(c.CapturePT(pt, testKey, cycles)) }, false},
		{"CaptureIdle", func(cycles int) ([]*Capture, error) { return scalar(c.CaptureIdle(cycles)) }, true},
		{"CaptureBatch", func(cycles int) ([]*Capture, error) { return c.CaptureBatch([][]byte{pt}, testKey, cycles) }, false},
		{"CaptureChain", func(cycles int) ([]*Capture, error) { return c.CaptureChain(pt, testKey, cycles, 1) }, false},
		{"CaptureIdleChain", func(cycles int) ([]*Capture, error) { return c.CaptureIdleChain(cycles, 1) }, true},
	}
	for _, tc := range cases {
		for _, cycles := range []int{-1, 0, 1} {
			caps, err := tc.run(cycles)
			if cycles == 1 && tc.okAtOne {
				if err != nil || len(caps) != 1 || len(caps[0].Sensor) != c.cfg.Power.SamplesPerCycle {
					t.Errorf("%s(cycles=1) = %d captures, %v; want one one-cycle capture", tc.name, len(caps), err)
				}
				continue
			}
			if err == nil || caps != nil {
				t.Errorf("%s(cycles=%d) = %d captures, %v; want an error", tc.name, cycles, len(caps), err)
			}
		}
	}
	for _, cycles := range []int{-1, 0, 1, batchCycles} {
		for _, count := range []int{-1, 0} {
			if caps, err := c.CaptureChain(pt, testKey, cycles, count); caps != nil || err != nil {
				t.Errorf("CaptureChain(cycles=%d, count=%d) = %d captures, %v; want nil, nil", cycles, count, len(caps), err)
			}
			if caps, err := c.CaptureIdleChain(cycles, count); caps != nil || err != nil {
				t.Errorf("CaptureIdleChain(cycles=%d, count=%d) = %d captures, %v; want nil, nil", cycles, count, len(caps), err)
			}
		}
	}
}
