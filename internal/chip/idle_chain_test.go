package chip

import "testing"

// TestCaptureIdleChainMatchesSerial pins the idle chain's contract on
// the interesting case — an A2-armed chip whose charge pump keeps
// evolving while the logic idles: every step must be bit-identical to a
// serial CaptureIdle sequence (waveforms, end state, cycle counter, A2
// voltage), and a second chip from the same start must replay the whole
// chain from the cache.
func TestCaptureIdleChainMatchesSerial(t *testing.T) {
	resetCaptureCache()
	c := infected(t).Clone()
	c.EnableA2(true)
	start := c.snapshot()
	const count = 5

	serial := c.Clone()
	serial.restore(start)
	want := make([]*Capture, count)
	for j := range want {
		cap, err := serial.CaptureIdle(batchCycles)
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
	got, err := chained.CaptureIdleChain(batchCycles, count)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != count {
		t.Fatalf("chain returned %d captures", len(got))
	}
	for j := range want {
		sameWave(t, "idle chain", got[j], want[j])
	}
	if !chained.sim.State().ValuesEqual(serial.sim.State()) {
		t.Fatal("idle chain and serial idles end in different states")
	}
	if chained.sim.Cycle() != serial.sim.Cycle() {
		t.Fatalf("chain cycle %d != serial cycle %d", chained.sim.Cycle(), serial.sim.Cycle())
	}
	if *chained.a2 != *serial.a2 {
		t.Fatal("idle chain left the A2 in a different state")
	}

	replay := c.Clone()
	replay.restore(start)
	again, err := replay.CaptureIdleChain(batchCycles, count)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for j := range again {
		sameWave(t, "replayed idle chain", again[j], want[j])
		if again[j] == got[j] {
			hits++
		}
	}
	if hits != count {
		t.Fatalf("replayed idle chain hit the cache on %d/%d steps", hits, count)
	}
	if !replay.sim.State().ValuesEqual(serial.sim.State()) {
		t.Fatal("replayed idle chain ends in a different state")
	}
	if replay.sim.Cycle() != serial.sim.Cycle() {
		t.Fatalf("replayed idle chain cycle %d != serial cycle %d", replay.sim.Cycle(), serial.sim.Cycle())
	}
	if *replay.a2 != *serial.a2 {
		t.Fatal("replayed idle chain left the A2 in a different state")
	}
}

// TestCaptureIdleChainDormant covers the golden chip: idling is a fixed
// point, so the chain collapses to at most one simulation while still
// advancing the cycle counter exactly like serial CaptureIdle calls.
func TestCaptureIdleChainDormant(t *testing.T) {
	resetCaptureCache()
	c := golden(t).Clone()
	serial := c.Clone()
	const count = 4
	want := make([]*Capture, count)
	for j := range want {
		cap, err := serial.CaptureIdle(batchCycles)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = &Capture{
			Sensor: append([]float64(nil), cap.Sensor...),
			Probe:  append([]float64(nil), cap.Probe...),
			Dt:     cap.Dt,
		}
	}
	got, err := c.CaptureIdleChain(batchCycles, count)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		sameWave(t, "dormant idle chain", got[j], want[j])
	}
	if c.sim.Cycle() != serial.sim.Cycle() {
		t.Fatalf("chain cycle %d != serial cycle %d", c.sim.Cycle(), serial.sim.Cycle())
	}
	if !c.sim.State().ValuesEqual(serial.sim.State()) {
		t.Fatal("dormant idle chain moved the chip differently than serial idles")
	}

	// Degenerate counts.
	if caps, err := c.CaptureIdleChain(batchCycles, 0); err != nil || caps != nil {
		t.Fatalf("count 0 = (%v, %v), want (nil, nil)", caps, err)
	}
}
