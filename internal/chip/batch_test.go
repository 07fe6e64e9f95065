package chip

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"emtrust/internal/analog"
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
	c := infected(t).Clone()
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

// orbitStates advances the chip through count captures of a fixed
// plaintext and calls visit before each, so a test meets genuinely
// distinct starting states on an active-Trojan chip.
func orbitStates(t *testing.T, c *Chip, pt []byte, count int, visit func(step int)) {
	t.Helper()
	for i := 0; i < count; i++ {
		visit(i)
		if _, err := c.CapturePT(pt, testKey, batchCycles); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCaptureBatchMatchesScalar pins the wide engine's end-to-end
// contract: every lane of a batched capture — divergent plaintexts,
// batched from each of several divergent starting states in turn, with
// a digital Trojan and the analog A2 running — must be bit-identical to
// an independent scalar capture from the same state, and the batch
// must not move the chip.
func TestCaptureBatchMatchesScalar(t *testing.T) {
	resetCaptureCache()
	c := activeClone(t, trojan.T1AMLeaker)
	c.EnableA2(true)
	scalar := c.Clone()

	const lanes = 9
	pts := make([][]byte, lanes)
	for i := range pts {
		pt := make([]byte, 16)
		pt[0] = byte(37 * i)
		pt[15] = byte(i)
		pts[i] = pt
	}
	orbitStates(t, c, make([]byte, 16), 5, func(int) {
		before := c.snapshot()
		caps, err := c.CaptureBatch(pts, testKey, batchCycles)
		if err != nil {
			t.Fatal(err)
		}
		if !c.at(before) {
			t.Fatal("batched capture moved the chip's state")
		}
		for i := range pts {
			scalar.restore(before)
			want, err := scalar.CapturePT(pts[i], testKey, batchCycles)
			if err != nil {
				t.Fatal(err)
			}
			sameWave(t, "lane", caps[i], want)
		}
	})
}

// TestCaptureBatchFiringA2MatchesScalar covers what the 16-cycle
// differential above cannot reach: each digital Trojan active (T2's
// crowbar current included) next to an armed A2 that is firing, its
// pump charged by a long idle capture, so its fast-toggle pulses carry
// across cycle boundaries. At 16, 33 and 512 cycles every lane must
// be bit-identical to a scalar capture from the same state.
func TestCaptureBatchFiringA2MatchesScalar(t *testing.T) {
	pts := make([][]byte, 5)
	for i := range pts {
		pt := make([]byte, 16)
		pt[2] = byte(53 * i)
		pt[9] = byte(i + 1)
		pts[i] = pt
	}
	for _, kind := range trojan.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			resetCaptureCache()
			c := activeClone(t, kind)
			c.EnableA2(true)
			if _, err := c.CaptureIdle(600); err != nil {
				t.Fatal(err)
			}
			if !c.a2.Firing() {
				t.Fatal("A2 is not firing after the 600-cycle charge-up")
			}
			scalar := c.Clone()
			for _, cycles := range []int{16, 33, 512} {
				before := c.snapshot()
				caps, err := c.CaptureBatch(pts, testKey, cycles)
				if err != nil {
					t.Fatal(err)
				}
				for i := range pts {
					scalar.restore(before)
					want, err := scalar.CapturePT(pts[i], testKey, cycles)
					if err != nil {
						t.Fatal(err)
					}
					sameWave(t, fmt.Sprintf("%d cycles, lane %d", cycles, i), caps[i], want)
				}
			}
		})
	}
}

// TestCaptureBatchLaneCountInvariance pins the determinism contract:
// the same batch, from each of several starting states in turn, split
// into 1-, 3- or 64-lane wide runs (partial final chunks included)
// produces byte-identical captures.
func TestCaptureBatchLaneCountInvariance(t *testing.T) {
	c := activeClone(t, trojan.T4PowerHog)
	const n = 7
	pts := make([][]byte, n)
	for i := range pts {
		pt := make([]byte, 16)
		pt[3] = byte(11 * i)
		pts[i] = pt
	}
	orbitStates(t, c, make([]byte, 16), 4, func(int) {
		var got [][]*Capture
		for _, lanes := range []int{64, 3, 1} {
			resetCaptureCache()
			restore := SetBatchLanes(lanes)
			caps, err := c.CaptureBatch(pts, testKey, batchCycles)
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
	})
}

// TestCaptureBatchReferenceFallback pins the scalar fallback: a
// reference-engine chip batches through per-group scalar captures, and
// its waveforms match the compiled chip's wide-engine batch.
func TestCaptureBatchReferenceFallback(t *testing.T) {
	resetCaptureCache()
	ref, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	useReferenceEngine(t, ref)
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

// TestCaptureBatchDedup: lanes with identical plaintexts simulate
// separately into bit-identical waveforms, each lane with its own
// *Capture, while a distinct plaintext changes the waveform.
func TestCaptureBatchDedup(t *testing.T) {
	c := activeClone(t, trojan.T1AMLeaker)
	pt := make([]byte, 16)
	other := make([]byte, 16)
	other[0] = 0xff
	caps, err := c.CaptureBatch([][]byte{pt, other, pt}, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] == caps[2] {
		t.Fatal("identical lanes share one *Capture")
	}
	sameWave(t, "identical lanes", caps[0], caps[2])
	differs := false
	for i := range caps[0].Sensor {
		differs = differs || caps[0].Sensor[i] != caps[1].Sensor[i]
	}
	if !differs {
		t.Fatal("distinct plaintexts gave the same waveform")
	}
}

// mixedStarts returns start chips of base's design in four pairwise
// distinct states: dormant with A2 disarmed, T1 active, T1 three
// captures further along its orbit, and T3 active. None of them is
// base.
func mixedStarts(t *testing.T, base *Chip) []*Chip {
	t.Helper()
	dormant := base.Clone()
	if err := dormant.DeactivateAll(); err != nil {
		t.Fatal(err)
	}
	dormant.EnableA2(false)
	t1 := dormant.Clone()
	if err := t1.SetTrojan(trojan.T1AMLeaker, true); err != nil {
		t.Fatal(err)
	}
	t1Later := t1.Clone()
	orbitStates(t, t1Later, make([]byte, 16), 3, func(int) {})
	t3 := dormant.Clone()
	if err := t3.SetTrojan(trojan.T3CDMALeaker, true); err != nil {
		t.Fatal(err)
	}
	starts := []*Chip{dormant, t1, t1Later, t3}
	for i := range starts {
		for j := i + 1; j < len(starts); j++ {
			if starts[i].at(starts[j].snapshot()) {
				t.Fatalf("start chips %d and %d hold the same state", i, j)
			}
		}
	}
	return starts
}

// laneSet spreads lanes over the start chips round-robin and over
// three plaintexts in blocks of len(starts), so the first block runs one
// plaintext from every start and the fourth repeats the first block's
// (start, plaintext) pairs.
func laneSet(starts []*Chip, lanes int) (from []*Chip, pts [][]byte) {
	for i := 0; i < lanes; i++ {
		pt := make([]byte, 16)
		pt[4] = byte(0x3c * (i / len(starts) % 3))
		pt[11] = byte(i / len(starts) % 3)
		from = append(from, starts[i%len(starts)])
		pts = append(pts, pt)
	}
	return from, pts
}

// checkLanes asserts every lane is bit-identical to a scalar CapturePT
// from a clone of its start chip, and that no two lanes share a
// *Capture, even when they share start and plaintext.
func checkLanes(t *testing.T, label string, from []*Chip, pts [][]byte, caps []*Capture, cycles int) {
	t.Helper()
	for i := range pts {
		want, err := from[i].Clone().CapturePT(pts[i], testKey, cycles)
		if err != nil {
			t.Fatal(err)
		}
		sameWave(t, fmt.Sprintf("%s lane %d", label, i), caps[i], want)
		for j := 0; j < i; j++ {
			if caps[i] == caps[j] {
				t.Fatalf("%s: lanes %d and %d share a capture (same start and plaintext: %v)", label, j, i, from[i] == from[j] && bytes.Equal(pts[i], pts[j]))
			}
		}
	}
}

// frozen records each chip's state and cycle counter and returns a
// check that fails the test if any of them moved since.
func frozen(chips ...*Chip) func(t *testing.T, label string) {
	st := make([]state, len(chips))
	cycle := make([]int, len(chips))
	for k, c := range chips {
		st[k], cycle[k] = c.snapshot(), c.sim.Cycle()
	}
	return func(t *testing.T, label string) {
		t.Helper()
		for k, c := range chips {
			if !c.at(st[k]) || c.sim.Cycle() != cycle[k] {
				t.Fatalf("%s: chip %d moved (cycle %d, was %d)", label, k, c.sim.Cycle(), cycle[k])
			}
		}
	}
}

// TestCaptureBatchMixedStarts pins CaptureLanes: lanes from four
// distinct start states, with plaintexts repeated across and within
// starts, each match a scalar capture from their start chip at lane caps
// 64, 5 and 1; neither the start chips nor the receiver move; and no
// call touches the capture cache: every Stats counter and the cache's
// entry count stay put, with the cache empty and with a chain's entries
// in it.
func TestCaptureBatchMixedStarts(t *testing.T) {
	starts := mixedStarts(t, infected(t))
	recv := infected(t).Clone()
	from, pts := laneSet(starts, 15) // 12 distinct (start, plaintext) lanes
	unmoved := frozen(append([]*Chip{recv}, starts...)...)
	captureLanes := func(label string, lanes int) []*Capture {
		t.Helper()
		s0, n0 := Stats(), cachedEntries()
		restore := SetBatchLanes(lanes)
		caps, err := recv.CaptureLanes(from, pts, testKey, batchCycles)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if s1, n1 := Stats(), cachedEntries(); s1 != s0 || n1 != n0 {
			t.Fatalf("%s: CaptureLanes moved the cache: stats %+v -> %+v, entries %d -> %d", label, s0, s1, n0, n1)
		}
		return caps
	}
	for _, lanes := range []int{64, 5, 1} {
		resetCaptureCache()
		label := fmt.Sprintf("lanes=%d", lanes)
		caps := captureLanes(label, lanes)
		checkLanes(t, label, from, pts, caps, batchCycles)
		unmoved(t, label)

		if _, err := starts[1].Clone().CaptureChain(pts[0], testKey, batchCycles, 3); err != nil {
			t.Fatal(err)
		}
		if cachedEntries() == 0 {
			t.Fatal("the chain stored no cache entry")
		}
		again := captureLanes(label+" with a warm cache", lanes)
		for i := range caps {
			sameWave(t, fmt.Sprintf("%s second call lane %d", label, i), again[i], caps[i])
		}
		unmoved(t, label+" second call")
	}
}

// TestCaptureBatchMixedA2Starts covers per-lane A2 arming: lanes from a
// start whose armed A2 is firing (with T2's crowbar on), one armed but
// still charging, one disarmed right after firing and one never armed
// (T4 on) share wide runs at 16, 33 and 512 cycles, and each matches a
// scalar capture from its start chip.
func TestCaptureBatchMixedA2Starts(t *testing.T) {
	resetCaptureCache()
	firing := activeClone(t, trojan.T2LeakageCurrent)
	firing.EnableA2(true)
	if _, err := firing.CaptureIdle(600); err != nil {
		t.Fatal(err)
	}
	if !firing.a2.Firing() {
		t.Fatal("A2 is not firing after the 600-cycle charge-up")
	}
	charging := infected(t).Clone()
	charging.EnableA2(true)
	if _, err := charging.CaptureIdle(40); err != nil {
		t.Fatal(err)
	}
	if charging.a2.Firing() || *charging.a2 == *analog.NewA2(charging.cfg.A2) {
		t.Fatal("the charging start's A2 is firing or still at rest")
	}
	disarmed := firing.Clone()
	disarmed.EnableA2(false)
	never := activeClone(t, trojan.T4PowerHog)
	never.EnableA2(false)
	starts := []*Chip{firing, charging, disarmed, never}
	recv := infected(t).Clone()
	from, pts := laneSet(starts, 8)
	unmoved := frozen(append([]*Chip{recv}, starts...)...)
	for _, cycles := range []int{16, 33, 512} {
		caps, err := recv.CaptureLanes(from, pts, testKey, cycles)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%d cycles", cycles)
		checkLanes(t, label, from, pts, caps, cycles)
		unmoved(t, label)
	}
}

// TestCaptureBatchMixedStartsReferenceFallback pins the scalar fallback
// with mixed starts: on a reference-engine chip every lane matches a
// scalar capture from its start chip and the lane of a compiled chip
// from the same start; no chip moves.
func TestCaptureBatchMixedStartsReferenceFallback(t *testing.T) {
	resetCaptureCache()
	// Fresh builds on both engines start from the same state, unlike the
	// shared infected chip, whose state depends on earlier tests.
	ref, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	useReferenceEngine(t, ref)
	cmp, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refStarts, cmpStarts := mixedStarts(t, ref), mixedStarts(t, cmp)
	from, pts := laneSet(refStarts, 10)
	cmpFrom, _ := laneSet(cmpStarts, 10)
	unmoved := frozen(append([]*Chip{ref}, refStarts...)...)
	caps, err := ref.CaptureLanes(from, pts, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	checkLanes(t, "reference", from, pts, caps, batchCycles)
	unmoved(t, "reference")
	cmpCaps, err := cmp.CaptureLanes(cmpFrom, pts, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		sameWave(t, fmt.Sprintf("engine lane %d", i), caps[i], cmpCaps[i])
	}
}

// TestCaptureBatchSharedStartsConcurrent runs two receivers at once on
// lanes from the same start chips, one receiver among them (as a worker
// pool does with the chip it was handed); under -race this pins that
// CaptureLanes writes no start chip.
func TestCaptureBatchSharedStartsConcurrent(t *testing.T) {
	resetCaptureCache()
	a := activeClone(t, trojan.T1AMLeaker)
	b := a.Clone()
	starts := append(mixedStarts(t, infected(t)), a)
	from, pts := laneSet(starts, 10)
	var caps [2][]*Capture
	var errs [2]error
	var wg sync.WaitGroup
	for k, recv := range []*Chip{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			caps[k], errs[k] = recv.CaptureLanes(from, pts, testKey, batchCycles)
		}()
	}
	wg.Wait()
	for k := range errs {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
	}
	for i := range pts {
		sameWave(t, fmt.Sprintf("lane %d", i), caps[0][i], caps[1][i])
	}
}

// TestCaptureBatchForeignDesign: a lane whose start chip was built from
// another design (the golden build, a stuck-at variant) is an error, as
// is a lane count that differs from the start-chip count; a chip of the
// receiver's configuration at another seed shares its design.
func TestCaptureBatchForeignDesign(t *testing.T) {
	recv := infected(t).Clone()
	pt := make([]byte, 16)
	variant, err := recv.WithStuckAt(recv.Trojan(trojan.T1AMLeaker).Active, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Chip{"golden": golden(t), "stuck-at": variant} {
		caps, err := recv.CaptureLanes([]*Chip{recv, f}, [][]byte{pt, pt}, testKey, batchCycles)
		if err == nil || caps != nil {
			t.Errorf("%s start: %d captures, %v; want an error", name, len(caps), err)
		}
	}
	if caps, err := recv.CaptureLanes([]*Chip{recv}, [][]byte{pt, pt}, testKey, batchCycles); err == nil || caps != nil {
		t.Errorf("2 lanes from 1 start chip: %d captures, %v; want an error", len(caps), err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	reseeded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.CaptureLanes([]*Chip{reseeded}, [][]byte{pt}, testKey, batchCycles); err != nil {
		t.Fatalf("start chip at another seed: %v", err)
	}
}

// TestCaptureChainMatchesSerial pins CaptureChain's contract on an
// evolving chip: waveforms and the state trajectory are bit-identical
// to serial CapturePT calls, and a replayed chain (cache hits) returns
// the same results and final state.
func TestCaptureChainMatchesSerial(t *testing.T) {
	resetCaptureCache()
	c := activeClone(t, trojan.T3CDMALeaker)
	start := c.snapshot()
	pt := make([]byte, 16)
	pt[5] = 0xa5
	const count = 5

	serial := c.Clone()
	serial.restore(start)
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

	chained := c.Clone()
	chained.restore(start)
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

	replay := c.Clone()
	replay.restore(start)
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
	if replay.sim.Cycle() != serial.sim.Cycle() {
		t.Fatalf("replayed chain cycle %d != serial cycle %d", replay.sim.Cycle(), serial.sim.Cycle())
	}
}

// TestFixedPointMemo pins the dormant-chip fast path: from the second
// identical capture on, CapturePT and CaptureIdle return the same
// *Capture, Tiles included, while still advancing the cycle counter,
// and a different stimulus breaks the replay.
func TestFixedPointMemo(t *testing.T) {
	c := golden(t).Clone()
	pt := make([]byte, 16)
	// Capture 1 moves the AES registers off the reset state; capture 2
	// is the first fixed-point traversal and fills the slot.
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
		t.Fatal("replayed capture lost its Tiles")
	}
	// A replay must match what a fresh simulation of the same capture
	// produces: clear the slot and re-simulate.
	c.fixed = nil
	fresh, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	sameWave(t, "replay vs fresh", fresh, c2)

	other := make([]byte, 16)
	other[0] = 1
	c4, err := c.CapturePT(other, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if c4 == c3 {
		t.Fatal("different plaintext replayed the fixed point")
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
	c.fixed = nil
	freshIdle, err := c.CaptureIdle(batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	sameWave(t, "idle replay vs fresh", freshIdle, i2)
}

// TestFixedPointSlotClearedBySimulation pins the slot's invariant: a
// replayed capture's Tiles alias the chip's recorder, so no replay may
// outlive a simulated capture that reuses it. A fixed-point CapturePT,
// then a CaptureIdle (simulated, on the same recorder), then the same
// CapturePT must return the Tiles a fresh clone's capture computes.
func TestFixedPointSlotClearedBySimulation(t *testing.T) {
	c := golden(t).Clone()
	pt := make([]byte, 16)
	for i := 0; i < 2; i++ { // the second capture is a fixed point
		if _, err := c.CapturePT(pt, testKey, batchCycles); err != nil {
			t.Fatal(err)
		}
	}
	if c.fixed == nil || c.fixed.idle {
		t.Fatal("fixed-point CapturePT did not fill the slot")
	}
	if _, err := c.CaptureIdle(batchCycles); err != nil {
		t.Fatal(err)
	}
	clone := c.Clone()
	want, err := clone.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	sameWave(t, "after idle", got, want)
	if len(got.Tiles) == 0 || len(got.Tiles) != len(want.Tiles) {
		t.Fatalf("Tiles: %d tiles, want %d", len(got.Tiles), len(want.Tiles))
	}
	for tile := range want.Tiles {
		for i, v := range want.Tiles[tile] {
			if got.Tiles[tile][i] != v {
				t.Fatalf("tile %d sample %d: %v, fresh clone %v", tile, i, got.Tiles[tile][i], v)
			}
		}
	}
}

// TestCaptureEdgeCases pins the degenerate-argument contract of every
// capture entry point: a window without a clock cycle is an error, an
// encryption window of one cycle cannot hold the load edge and errors
// too, and a chain of count <= 0 is clamped to nil. None of them may
// panic.
func TestCaptureEdgeCases(t *testing.T) {
	c := golden(t).Clone()
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
