package chip

import (
	"testing"

	"emtrust/internal/netlist"
	"emtrust/internal/trojan"
)

// cachedEntries reports how many entries the capture cache holds.
func cachedEntries() int {
	captureCache.Lock()
	defer captureCache.Unlock()
	return captureCache.count
}

// laneTexts returns n distinct plaintexts numbered from first.
func laneTexts(first, n int) [][]byte {
	pts := make([][]byte, n)
	for i := range pts {
		pts[i] = make([]byte, 16)
		pts[i][14], pts[i][15] = byte((first+i)>>8), byte(first+i)
	}
	return pts
}

// seedCaptures is what one seed's chips record through the chain and
// batch paths.
type seedCaptures struct {
	chain, idle, batch []*Capture
	ends               []state
	cycles             []int
}

// captureAtSeed builds the default chip at the given seed and records a
// T3-active CaptureChain, an A2-armed CaptureIdleChain and a
// CaptureBatch, each on its own clone, with each clone's end state and
// cycle counter.
func captureAtSeed(t *testing.T, seed int64) seedCaptures {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out seedCaptures
	end := func(x *Chip) {
		out.ends = append(out.ends, x.snapshot())
		out.cycles = append(out.cycles, x.sim.Cycle())
	}
	clone := func() *Chip {
		x := c.Clone()
		return x
	}

	x := clone()
	if err := x.SetTrojan(trojan.T3CDMALeaker, true); err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 16)
	pt[3] = 0x5c
	if out.chain, err = x.CaptureChain(pt, testKey, batchCycles, 6); err != nil {
		t.Fatal(err)
	}
	end(x)

	x = clone()
	x.EnableA2(true)
	if out.idle, err = x.CaptureIdleChain(batchCycles, 5); err != nil {
		t.Fatal(err)
	}
	end(x)

	x = clone()
	if err := x.SetTrojan(trojan.T1AMLeaker, true); err != nil {
		t.Fatal(err)
	}
	if out.batch, err = x.CaptureBatch(laneTexts(0, 3), testKey, batchCycles); err != nil {
		t.Fatal(err)
	}
	end(x)
	return out
}

func sameSeedCaptures(t *testing.T, label string, got, want seedCaptures) {
	t.Helper()
	for _, set := range []struct {
		name      string
		got, want []*Capture
	}{{"chain", got.chain, want.chain}, {"idle chain", got.idle, want.idle}, {"batch", got.batch, want.batch}} {
		if len(set.got) != len(set.want) {
			t.Fatalf("%s %s: %d captures, want %d", label, set.name, len(set.got), len(set.want))
		}
		for j := range set.want {
			sameWave(t, label+" "+set.name, set.got[j], set.want[j])
		}
	}
	for i, w := range want.ends {
		g := got.ends[i]
		if !g.sim.ValuesEqual(w.sim) || g.a2 != w.a2 || g.a2On != w.a2On {
			t.Fatalf("%s: clone %d ends in a different state", label, i)
		}
		if got.cycles[i] != want.cycles[i] {
			t.Fatalf("%s: clone %d ends at cycle %d, want %d", label, i, got.cycles[i], want.cycles[i])
		}
	}
}

// TestCaptureCacheSharedAcrossSeeds pins the design-id key: no capture
// reads the chip seed, so chips at seeds 1 and 2 record bit-identical
// chains, idle chains and batches from a cold cache, and with the cache
// warm from seed 1 the seed-2 captures replay without a miss.
func TestCaptureCacheSharedAcrossSeeds(t *testing.T) {
	resetCaptureCache()
	want := captureAtSeed(t, 1)
	resetCaptureCache()
	sameSeedCaptures(t, "cold seed 2", captureAtSeed(t, 2), want)

	resetCaptureCache()
	captureAtSeed(t, 1)
	before := Stats()
	warm := captureAtSeed(t, 2)
	after := Stats()
	sameSeedCaptures(t, "warm seed 2", warm, want)
	if n := after.CaptureMisses - before.CaptureMisses; n != 0 {
		t.Fatalf("seed 2 missed the cache %d times after seed 1 warmed it", n)
	}
}

// TestCaptureCacheIsolatesStuckAtDesign pins that a stuck-at variant
// never replays its parent's captures, even from an equal pre-state:
// the stuck net holds its stuck value in the start state but toggles in
// the parent's capture window, so only the design id tells the two
// captures apart.
func TestCaptureCacheIsolatesStuckAtDesign(t *testing.T) {
	resetCaptureCache()
	parent := golden(t).Clone()
	parent.ResetState()
	pt := make([]byte, 16)
	pt[0] = 0x3d

	ran := parent.Clone()
	parentCaps, err := ran.CaptureChain(pt, testKey, batchCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	target := netlist.InvalidNet
	for _, cell := range parent.n.Cells {
		if parent.sim.Net(cell.Output) == 0 && ran.sim.Net(cell.Output) == 1 {
			target = cell.Output
			break
		}
	}
	if target == netlist.InvalidNet {
		t.Fatal("no net rises in the capture window")
	}
	stuck := func() *Chip {
		x, err := parent.WithStuckAt(target, false)
		if err != nil {
			t.Fatal(err)
		}
		x.ResetState()
		return x
	}

	faulty := stuck()
	if !faulty.at(parent.snapshot()) {
		t.Fatal("stuck-at chip starts from a different state than its parent")
	}
	before := Stats()
	got, err := faulty.CaptureChain(pt, testKey, batchCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := Stats().CaptureMisses - before.CaptureMisses; n != 1 {
		t.Fatalf("stuck-at chip missed the cache %d times, want 1: it replayed its parent's capture", n)
	}
	want, err := stuck().CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	sameWave(t, "stuck-at chain", got[0], want)
	differs := false
	for i := range want.Sensor {
		differs = differs || want.Sensor[i] != parentCaps[0].Sensor[i]
	}
	if !differs {
		t.Fatal("the stuck-at fault does not change the waveform; the test cannot tell the designs apart")
	}
}

// fillCycles is the window of the one-step chains that fill the capture
// cache: the shortest encryption capture (lead-in and load edge), so a
// full cache costs the fewest simulated cycles.
const fillCycles = 2

// TestCaptureCacheEvictionDropsAll pins the wholesale drop: one-step
// chains of distinct plaintexts fill the cache to its cap without
// passing it, the store that finds it full drops every entry and
// counts them in CaptureEvictions, and a chain warmed before the drop
// misses once per step after it, then replays.
func TestCaptureCacheEvictionDropsAll(t *testing.T) {
	resetCaptureCache()
	c := activeClone(t, trojan.T3CDMALeaker)
	start := c.snapshot()
	pt := make([]byte, 16)
	pt[9] = 0xe1
	const steps = 4
	chain := func() ([]*Capture, uint64) {
		x := c.Clone()
		x.restore(start)
		before := Stats()
		caps, err := x.CaptureChain(pt, testKey, batchCycles, steps)
		if err != nil {
			t.Fatal(err)
		}
		return caps, Stats().CaptureMisses - before.CaptureMisses
	}
	want, misses := chain()
	if misses != steps {
		t.Fatalf("cold chain missed %d times, want %d", misses, steps)
	}
	if _, misses := chain(); misses != 0 {
		t.Fatalf("warm chain missed %d times", misses)
	}

	fill := c.Clone()
	before := Stats()
	for i := 0; cachedEntries() < maxCaptureEntries; i++ {
		if i == maxCaptureEntries {
			t.Fatalf("%d distinct one-step chains left %d entries", i, cachedEntries())
		}
		if _, err := fill.CaptureChain(laneTexts(i, 1)[0], testKey, fillCycles, 1); err != nil {
			t.Fatal(err)
		}
		if n := cachedEntries(); n > maxCaptureEntries {
			t.Fatalf("cache holds %d entries, cap %d", n, maxCaptureEntries)
		}
	}
	if n := Stats().CaptureEvictions - before.CaptureEvictions; n != 0 {
		t.Fatalf("filling the cache to its cap evicted %d entries", n)
	}
	before = Stats()
	if _, err := fill.CaptureChain(laneTexts(maxCaptureEntries, 1)[0], testKey, fillCycles, 1); err != nil {
		t.Fatal(err)
	}
	if n := Stats().CaptureEvictions - before.CaptureEvictions; n != maxCaptureEntries {
		t.Fatalf("the store into a full cache evicted %d entries, want %d", n, maxCaptureEntries)
	}
	if n := cachedEntries(); n != 1 {
		t.Fatalf("cache holds %d entries after the drop, want 1", n)
	}

	got, misses := chain()
	if misses != steps {
		t.Fatalf("chain after the drop missed %d times, want %d", misses, steps)
	}
	for j := range want {
		sameWave(t, "chain after the drop", got[j], want[j])
	}
	if _, misses := chain(); misses != 0 {
		t.Fatalf("chain rewarmed after the drop missed %d times", misses)
	}
}

// TestCaptureChainReplayThenSimulate pins the hand-over from replaying
// to simulating inside one chain: five warmed steps replay, the chip
// takes their end state, and three more simulate. The warm-up runs on
// a chip whose cycle counter is offset, so a replay must advance the
// replaying chip's own counter. Waveforms, end state, Cycle() and the
// A2 state must equal a serial capture loop.
func TestCaptureChainReplayThenSimulate(t *testing.T) {
	pt := make([]byte, 16)
	pt[7] = 0x42
	cases := []struct {
		name   string
		setup  func(c *Chip)
		chain  func(c *Chip, count int) ([]*Capture, error)
		serial func(c *Chip) (*Capture, error)
	}{
		{
			name: "T3",
			setup: func(c *Chip) {
				if err := c.SetTrojan(trojan.T3CDMALeaker, true); err != nil {
					t.Fatal(err)
				}
			},
			chain:  func(c *Chip, count int) ([]*Capture, error) { return c.CaptureChain(pt, testKey, batchCycles, count) },
			serial: func(c *Chip) (*Capture, error) { return c.CapturePT(pt, testKey, batchCycles) },
		},
		{
			name:   "A2idle",
			setup:  func(c *Chip) { c.EnableA2(true) },
			chain:  func(c *Chip, count int) ([]*Capture, error) { return c.CaptureIdleChain(batchCycles, count) },
			serial: func(c *Chip) (*Capture, error) { return c.CaptureIdle(batchCycles) },
		},
	}
	const warm, count = 5, 8
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resetCaptureCache()
			c := infected(t).Clone()
			tc.setup(c)
			start := c.snapshot()
			from := func(cycleOffset int) *Chip {
				x := c.Clone()
				x.restore(start)
				x.sim.SetCycle(x.sim.Cycle() + cycleOffset)
				return x
			}

			serial := from(0)
			want := make([]*Capture, count)
			for j := range want {
				cap, err := tc.serial(serial)
				if err != nil {
					t.Fatal(err)
				}
				want[j] = &Capture{
					Sensor: append([]float64(nil), cap.Sensor...),
					Probe:  append([]float64(nil), cap.Probe...),
					Dt:     cap.Dt,
				}
			}

			if _, err := tc.chain(from(3), warm); err != nil {
				t.Fatal(err)
			}
			chained := from(0)
			before := Stats()
			got, err := tc.chain(chained, count)
			if err != nil {
				t.Fatal(err)
			}
			after := Stats()
			if hits, misses := after.CaptureHits-before.CaptureHits, after.CaptureMisses-before.CaptureMisses; hits != warm || misses != count-warm {
				t.Fatalf("chain recorded %d hits and %d misses, want %d and %d", hits, misses, warm, count-warm)
			}
			for j := range want {
				sameWave(t, "chain step", got[j], want[j])
			}
			if !chained.sim.State().ValuesEqual(serial.sim.State()) {
				t.Fatal("chain and serial captures end in different states")
			}
			if chained.sim.Cycle() != serial.sim.Cycle() {
				t.Fatalf("chain cycle %d != serial cycle %d", chained.sim.Cycle(), serial.sim.Cycle())
			}
			if *chained.a2 != *serial.a2 || chained.a2Enabled != serial.a2Enabled {
				t.Fatal("chain left the A2 in a different state")
			}
		})
	}
}
