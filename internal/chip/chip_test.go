package chip

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"emtrust/internal/aes"
	"emtrust/internal/dsp"
	"emtrust/internal/emfield"
	"emtrust/internal/frand"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
	"emtrust/internal/trojan"
)

// Building a chip is expensive (~20 k cell netlist plus coupling
// precompute); share instances across tests.
var (
	infectedOnce sync.Once
	infectedChip *Chip
	goldenOnce   sync.Once
	goldenChip   *Chip
)

func infected(t testing.TB) *Chip {
	t.Helper()
	infectedOnce.Do(func() {
		c, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		infectedChip = c
	})
	if infectedChip == nil {
		t.Fatal("infected chip failed to build earlier")
	}
	return infectedChip
}

func golden(t testing.TB) *Chip {
	t.Helper()
	goldenOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.WithTrojans = false
		cfg.WithA2 = false
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		goldenChip = c
	})
	if goldenChip == nil {
		t.Fatal("golden chip failed to build earlier")
	}
	return goldenChip
}

var testKey = []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}

// captureRandom captures an encryption of a plaintext drawn from rng.
func captureRandom(t testing.TB, c *Chip, rng *frand.Rand, cycles int) *Capture {
	t.Helper()
	pt := make([]byte, 16)
	rng.Read(pt)
	cap, err := c.CapturePT(pt, testKey, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

func TestGoldenChipHasNoTrojans(t *testing.T) {
	c := golden(t)
	for _, k := range trojan.Kinds() {
		if c.Trojan(k) != nil {
			t.Fatalf("golden chip carries %v", k)
		}
		if err := c.SetTrojan(k, true); err == nil {
			t.Fatalf("activating %v on the golden chip must fail", k)
		}
	}
	if c.A2() != nil {
		t.Fatal("golden chip carries the A2 Trojan")
	}
	if c.Netlist().Name != "aes_golden" {
		t.Fatalf("name = %s", c.Netlist().Name)
	}
}

func TestInfectedChipInventory(t *testing.T) {
	c := infected(t)
	for _, k := range trojan.Kinds() {
		if c.Trojan(k) == nil {
			t.Fatalf("missing %v", k)
		}
	}
	if c.A2() == nil {
		t.Fatal("missing A2")
	}
	if c.Config().Seed != DefaultConfig().Seed {
		t.Fatal("config not retained")
	}
	if c.Floorplan() == nil || c.Netlist() == nil {
		t.Fatal("accessors broken")
	}
}

func TestCaptureEncryptsCorrectly(t *testing.T) {
	c := golden(t)
	pt := []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
	want := make([]byte, 16)
	aes.NewCipher(testKey).Encrypt(want, pt)
	if _, err := c.CapturePT(pt, testKey, 20); err != nil {
		t.Fatal(err)
	}
	got, err := c.Ciphertext()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("capture ciphertext %x, want %x", got, want)
	}
}

func TestCaptureShapes(t *testing.T) {
	c := golden(t)
	cap := captureRandom(t, c, frand.NewRand(1), 24)
	wantLen := 24 * c.Config().Power.SamplesPerCycle
	if len(cap.Sensor) != wantLen || len(cap.Probe) != wantLen {
		t.Fatalf("lengths %d/%d, want %d", len(cap.Sensor), len(cap.Probe), wantLen)
	}
	if cap.Dt != c.Config().Power.Dt() {
		t.Fatal("dt mismatch")
	}
	if dsp.RMS(cap.Sensor) == 0 || dsp.RMS(cap.Probe) == 0 {
		t.Fatal("silent capture")
	}
	if _, err := c.CapturePT(make([]byte, 3), testKey, 24); err == nil {
		t.Fatal("short pt must error")
	}
}

func TestIdleQuieterThanActive(t *testing.T) {
	c := golden(t)
	idle, err := c.CaptureIdle(24)
	if err != nil {
		t.Fatal(err)
	}
	active := captureRandom(t, c, frand.NewRand(1), 24)
	if dsp.RMS(idle.Sensor)*2 > dsp.RMS(active.Sensor) {
		t.Fatalf("idle sensor RMS %g not well below active %g", dsp.RMS(idle.Sensor), dsp.RMS(active.Sensor))
	}
}

func TestTrojanActivationChangesEM(t *testing.T) {
	c := infected(t)
	if err := c.DeactivateAll(); err != nil {
		t.Fatal(err)
	}
	rng := frand.NewRand(1)
	baseRMS := dsp.RMS(captureRandom(t, c, rng, 24).Sensor)
	for _, k := range []trojan.Kind{trojan.T2LeakageCurrent, trojan.T4PowerHog} {
		if err := c.SetTrojan(k, true); err != nil {
			t.Fatal(err)
		}
		if got := dsp.RMS(captureRandom(t, c, rng, 24).Sensor); got <= baseRMS*1.02 {
			t.Errorf("%v active: sensor RMS %g not above baseline %g", k, got, baseRMS)
		}
		if err := c.SetTrojan(k, false); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSimulatedSNRGap(t *testing.T) {
	c := golden(t)
	ch := SimulationChannels()
	rng := frand.NewRand(1)
	// Build long signal and noise records like Section IV-B/V-A: the
	// chip idles for the noise record and encrypts back-to-back for the
	// signal record.
	var signalS, signalP, noiseS, noiseP []float64
	for i := 0; i < 6; i++ {
		s, p := ch.Acquire(captureRandom(t, c, rng, 16), rng)
		signalS = append(signalS, s.Samples...)
		signalP = append(signalP, p.Samples...)
		idle, err := c.CaptureIdle(16)
		if err != nil {
			t.Fatal(err)
		}
		sn, pn := ch.Acquire(idle, rng)
		noiseS = append(noiseS, sn.Samples...)
		noiseP = append(noiseP, pn.Samples...)
	}
	snrSensor := dsp.SNRdB(signalS, noiseS)
	snrProbe := dsp.SNRdB(signalP, noiseP)
	t.Logf("simulated SNR: sensor %.2f dB, probe %.2f dB", snrSensor, snrProbe)
	if snrSensor < snrProbe+8 {
		t.Fatalf("sensor SNR %.1f dB not clearly above probe %.1f dB", snrSensor, snrProbe)
	}
	if snrSensor < 24 || snrSensor > 36 {
		t.Errorf("sensor SNR %.1f dB outside the paper's regime (~30 dB)", snrSensor)
	}
	if snrProbe < 12 || snrProbe > 23 {
		t.Errorf("probe SNR %.1f dB outside the paper's regime (~17.5 dB)", snrProbe)
	}
}

func TestA2FiresDuringCapture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WithTrojans = false // isolate the analog Trojan
	cfg.WithA2 = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableA2(true)
	// The clkdiv victim toggles every cycle; a few hundred cycles charge
	// the pump past threshold.
	if _, err := c.CaptureIdle(400); err != nil {
		t.Fatal(err)
	}
	if !c.A2().Firing() {
		t.Fatalf("A2 did not fire; V=%g", c.A2().Voltage())
	}
	// Disabled, it stays silent.
	c.EnableA2(false)
	if _, err := c.CaptureIdle(400); err != nil {
		t.Fatal(err)
	}
	if c.A2().Firing() || c.A2().Voltage() != 0 {
		t.Fatal("disabled A2 still pumping")
	}
}

func TestAcquireChannels(t *testing.T) {
	c := golden(t)
	rng := frand.NewRand(1)
	cap := captureRandom(t, c, rng, 16)
	s, p := MeasurementChannels().Acquire(cap, rng)
	if len(s.Samples) != len(cap.Sensor) || len(p.Samples) != len(cap.Probe) {
		t.Fatal("acquire length mismatch")
	}
	if s.Dt != cap.Dt {
		t.Fatal("dt lost in acquisition")
	}
}

func TestWithStuckAtChip(t *testing.T) {
	c := golden(t)
	// Stuck-at on a combinational AES net: ciphertext corrupts, the
	// original chip stays healthy.
	n := c.Netlist()
	var target = netlist.InvalidNet
	for _, cell := range n.Cells {
		if cell.Type == netlist.Xor2 && strings.HasPrefix(cell.Region, "aes/round") {
			target = cell.Output
			break
		}
	}
	if target == netlist.InvalidNet {
		t.Fatal("no fault site found")
	}
	faulty, err := c.WithStuckAt(target, true)
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 16)
	want := make([]byte, 16)
	aes.NewCipher(testKey).Encrypt(want, pt)
	if _, err := faulty.CapturePT(pt, testKey, 20); err != nil {
		t.Fatal(err)
	}
	got, err := faulty.Ciphertext()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		t.Log("fault was masked for this vector (possible); checking the healthy chip still works")
	}
	if _, err := c.CapturePT(pt, testKey, 20); err != nil {
		t.Fatal(err)
	}
	healthy, err := c.Ciphertext()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healthy, want) {
		t.Fatal("original chip corrupted by WithStuckAt")
	}
	// Error paths.
	if _, err := c.WithStuckAt(netlist.InvalidNet, true); err == nil {
		t.Fatal("invalid net must error")
	}
}

func TestResetState(t *testing.T) {
	c := golden(t)
	pt := make([]byte, 16)
	if _, err := c.CapturePT(pt, testKey, 20); err != nil {
		t.Fatal(err)
	}
	c.ResetState()
	ct, err := c.Ciphertext()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ct {
		if b != 0 {
			t.Fatal("state survived ResetState")
		}
	}
}

func TestSubSeedStableAndStreamSeparated(t *testing.T) {
	c := golden(t)
	if c.SubSeed(0, 0) != c.SubSeed(0, 0) {
		t.Fatal("SubSeed not deterministic")
	}
	seen := map[int64]bool{}
	for stream := uint64(0); stream < 8; stream++ {
		for idx := uint64(0); idx < 64; idx++ {
			s := c.SubSeed(stream, idx)
			if s < 0 {
				t.Fatalf("SubSeed(%d,%d) = %d is negative", stream, idx, s)
			}
			if seen[s] {
				t.Fatalf("SubSeed collision at (%d,%d)", stream, idx)
			}
			seen[s] = true
		}
	}
	// Different chip seeds must decorrelate.
	cfg := DefaultConfig()
	cfg.WithTrojans = false
	cfg.WithA2 = false
	cfg.Seed = 99
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.SubSeed(0, 0) == c.SubSeed(0, 0) {
		t.Error("different chip seeds produced the same sub-seed")
	}
}

func TestNextStreamSharedWithDerivedChips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WithTrojans = false
	cfg.WithA2 = false
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s0 := c.NextStream()
	clone := c.Clone()
	s1 := clone.NextStream()
	s2 := c.NextStream()
	if s1 != s0+1 || s2 != s0+2 {
		t.Errorf("streams not shared: got %d, %d, %d", s0, s1, s2)
	}
}

func TestSnapshotRestoreReplaysCapture(t *testing.T) {
	c := infected(t)
	base := c.snapshot()
	cap1, err := c.CapturePT(make([]byte, 16), testKey, 16)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]float64(nil), cap1.Sensor...)
	c.restore(base)
	cap2, err := c.CapturePT(make([]byte, 16), testKey, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if cap2.Sensor[i] != first[i] {
			t.Fatalf("sample %d differs after snapshot/restore replay", i)
		}
	}
	c.restore(base)
}

func TestCloneCapturesIdentically(t *testing.T) {
	c := infected(t)
	base := c.snapshot()
	defer c.restore(base)
	clone := c.Clone()
	capC, err := c.CapturePT(make([]byte, 16), testKey, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), capC.Sensor...)
	capW, err := clone.CapturePT(make([]byte, 16), testKey, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if capW.Sensor[i] != want[i] {
			t.Fatalf("sample %d: clone %v != original %v", i, capW.Sensor[i], want[i])
		}
	}
	// The clone must be fully independent: capturing on it again must not
	// disturb the original's recorder buffers.
	if _, err := clone.CaptureIdle(8); err != nil {
		t.Fatal(err)
	}
}

// TestNewForksBuildRecorder: chips that New builds from one cached
// build share the build recorder's charge table instead of each
// recomputing it, and two such chips at different seeds capture
// bit-identically, Tiles included.
func TestNewForksBuildRecorder(t *testing.T) {
	cfg := DefaultConfig()
	chips := make([]*Chip, 2)
	for i := range chips {
		cfg.Seed = int64(11 + i)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chips[i] = c
	}
	table := func(c *Chip) uintptr { return reflect.ValueOf(c.rec).Elem().FieldByName("charge").Pointer() }
	if chips[0].rec == chips[1].rec || table(chips[0]) != table(chips[1]) {
		t.Fatal("chips of one build must own their recorders and share one charge table")
	}
	pt := []byte("sixteen byte pt!")
	caps := make([]*Capture, 2)
	for i, c := range chips {
		cap, err := c.CapturePT(pt, testKey, 32)
		if err != nil {
			t.Fatal(err)
		}
		caps[i] = cap
	}
	sameWave(t, "seeds 11 and 12", caps[0], caps[1])
	for tile, w := range caps[0].Tiles {
		for i, v := range w {
			if caps[1].Tiles[tile][i] != v {
				t.Fatalf("tile %d sample %d: seed 12 %v, seed 11 %v", tile, i, caps[1].Tiles[tile][i], v)
			}
		}
	}
}

// TestCaptureProjectionMatchesTiles keeps a scalar capture's two
// outputs describing one capture: with T2's crowbar current on and the
// A2 firing, the sensor and probe emf that CapturePT and CaptureIdle
// project cycle by cycle stay within 1e-12 of the waveform's peak of the
// sensor and probe couplings' EMF over the capture's Tiles, which the
// fleet, the sensor array, localization and the RON baseline read.
func TestCaptureProjectionMatchesTiles(t *testing.T) {
	c := activeClone(t, trojan.T2LeakageCurrent)
	c.EnableA2(true)
	if _, err := c.CaptureIdle(600); err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	probeCoil := emfield.ExternalProbe(c.fp.Die, cfg.ProbeRadius, cfg.ProbeTurns, cfg.ProbeZ, cfg.ProbePitch)
	probe, err := emfield.CachedCoupling(probeCoil, c.fp.Grid, cfg.TileLoopArea, cfg.Quad)
	if err != nil {
		t.Fatal(err)
	}
	for _, cycles := range []int{32, 512} {
		for _, idle := range []bool{false, true} {
			if !c.a2.Firing() {
				t.Fatal("A2 is not firing")
			}
			var cap *Capture
			if idle {
				cap, err = c.CaptureIdle(cycles)
			} else {
				cap, err = c.CapturePT([]byte("projected plaint"), testKey, cycles)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range []struct {
				name string
				emf  []float64
				cp   *emfield.Coupling
			}{{"sensor", cap.Sensor, c.sensor}, {"probe", cap.Probe, probe}} {
				ref := ch.cp.EMF(cap.Tiles, cap.Dt)
				if len(ch.emf) != len(ref) {
					t.Fatalf("%d cycles, idle %v: %s has %d samples, want %d", cycles, idle, ch.name, len(ch.emf), len(ref))
				}
				peak := 0.0
				for _, v := range ref {
					peak = max(peak, math.Abs(v))
				}
				for i, v := range ref {
					if d := math.Abs(ch.emf[i] - v); d > 1e-12*peak {
						t.Fatalf("%d cycles, idle %v: %s sample %d: projected %v, EMF(Tiles) %v (|diff| %.3g of peak)", cycles, idle, ch.name, i, ch.emf[i], v, d/peak)
					}
				}
			}
		}
	}
}

func TestChannelsAcquireDeterministic(t *testing.T) {
	c := golden(t)
	base := c.snapshot()
	defer c.restore(base)
	cap, err := c.CaptureIdle(16)
	if err != nil {
		t.Fatal(err)
	}
	ch := SimulationChannels()
	s1, p1 := ch.Acquire(cap, c.SplitRand(1000, 7))
	s2, p2 := ch.Acquire(cap, c.SplitRand(1000, 7))
	for i := range s1.Samples {
		if s1.Samples[i] != s2.Samples[i] || p1.Samples[i] != p2.Samples[i] {
			t.Fatal("same (stream, index) must reproduce the same trace")
		}
	}
	s3, _ := ch.Acquire(cap, c.SplitRand(1000, 8))
	same := true
	for i := range s1.Samples {
		if s1.Samples[i] != s3.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different indices produced identical noise")
	}
}

// TestChannelsAcquireSensorOnly: a Channels without a probe draws the
// sensor's noise first, as a dual one does, so for one capture and one
// generator seed its sensor trace equals the dual acquisition's bit for
// bit, on the simulation and the measurement channels, and its probe
// trace is nil.
func TestChannelsAcquireSensorOnly(t *testing.T) {
	cap := captureRandom(t, golden(t).Clone(), frand.NewRand(3), 32)
	for _, tc := range []struct {
		name string
		dual Channels
	}{{"simulation", SimulationChannels()}, {"measurement", MeasurementChannels()}} {
		name, dual := tc.name, tc.dual
		want, _ := dual.Acquire(cap, frand.NewRand(17))
		got, probe := Channels{Sensor: dual.Sensor}.Acquire(cap, frand.NewRand(17))
		if probe != nil {
			t.Fatalf("%s: sensor-only acquisition returned a probe trace", name)
		}
		if got.Dt != want.Dt || len(got.Samples) != len(want.Samples) {
			t.Fatalf("%s: sensor-only trace of %d samples at dt %v, dual %d at %v", name, len(got.Samples), got.Dt, len(want.Samples), want.Dt)
		}
		for i := range want.Samples {
			if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
				t.Fatalf("%s: sample %d: sensor-only %v, dual %v", name, i, got.Samples[i], want.Samples[i])
			}
		}
	}
}

// useReferenceEngine moves c onto logic's reference full-cone evaluator,
// starting from c's current state, under a fresh design id so c never
// replays the compiled engine's capture-cache entries.
func useReferenceEngine(t *testing.T, c *Chip) {
	t.Helper()
	sim, err := logic.New(c.n, logic.WithReferenceEngine())
	if err != nil {
		t.Fatal(err)
	}
	sim.SetState(c.sim.State())
	c.sim = sim
	c.design = designIDs.Add(1)
	c.resetPrivate()
	if c.sim.Compiled() {
		t.Fatal("chip still runs the compiled engine")
	}
}

// TestCompiledMatchesReferenceCaptures pins the perf-critical contract
// of the compiled event-driven simulator at the chip level: every
// capture output — sensor and probe waveforms and the per-tile current
// matrix — must be bit-identical to the reference full-cone evaluator,
// across encryption captures, idle captures, active Trojans, the A2
// analog path, and a stuck-at mutant.
func TestCompiledMatchesReferenceCaptures(t *testing.T) {
	compiled, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reference, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	useReferenceEngine(t, reference)

	compare := func(step string, a, b *Capture) {
		t.Helper()
		if len(a.Sensor) != len(b.Sensor) {
			t.Fatalf("%s: capture lengths differ", step)
		}
		for i := range a.Sensor {
			if a.Sensor[i] != b.Sensor[i] {
				t.Fatalf("%s: sensor sample %d: compiled %v != reference %v", step, i, a.Sensor[i], b.Sensor[i])
			}
			if a.Probe[i] != b.Probe[i] {
				t.Fatalf("%s: probe sample %d: compiled %v != reference %v", step, i, a.Probe[i], b.Probe[i])
			}
		}
		for tile := range a.Tiles {
			for i := range a.Tiles[tile] {
				if a.Tiles[tile][i] != b.Tiles[tile][i] {
					t.Fatalf("%s: tile %d sample %d differs", step, tile, i)
				}
			}
		}
	}

	run := func(step string, f func(c *Chip) (*Capture, error)) {
		t.Helper()
		ca, err := f(compiled)
		if err != nil {
			t.Fatalf("%s (compiled): %v", step, err)
		}
		// Copy: Tiles alias recorder buffers that the next capture reuses.
		snap := &Capture{
			Sensor: append([]float64(nil), ca.Sensor...),
			Probe:  append([]float64(nil), ca.Probe...),
			Tiles:  make([][]float64, len(ca.Tiles)),
		}
		for i, w := range ca.Tiles {
			snap.Tiles[i] = append([]float64(nil), w...)
		}
		cb, err := f(reference)
		if err != nil {
			t.Fatalf("%s (reference): %v", step, err)
		}
		compare(step, snap, cb)
	}

	pt := make([]byte, 16)
	run("encrypt", func(c *Chip) (*Capture, error) { return c.CapturePT(pt, testKey, 16) })
	run("idle", func(c *Chip) (*Capture, error) { return c.CaptureIdle(12) })

	for _, c := range []*Chip{compiled, reference} {
		if err := c.SetTrojan(trojan.T1AMLeaker, true); err != nil {
			t.Fatal(err)
		}
		c.EnableA2(true)
	}
	run("trojan+a2", func(c *Chip) (*Capture, error) { return c.CapturePT(pt, testKey, 16) })

	// Snapshot/restore replay must stay identical across engines too.
	snapC, snapR := compiled.snapshot(), reference.snapshot()
	run("pre-restore", func(c *Chip) (*Capture, error) { return c.CapturePT(pt, testKey, 16) })
	compiled.restore(snapC)
	reference.restore(snapR)
	run("post-restore", func(c *Chip) (*Capture, error) { return c.CapturePT(pt, testKey, 16) })

	// Stuck-at mutants rebuild the simulator; the engines must agree there.
	target := compiled.Netlist().Cells[100].Output
	saC, err := compiled.WithStuckAt(target, true)
	if err != nil {
		t.Fatal(err)
	}
	saR, err := reference.WithStuckAt(target, true)
	if err != nil {
		t.Fatal(err)
	}
	useReferenceEngine(t, saR)
	capC, err := saC.CapturePT(pt, testKey, 16)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Capture{Sensor: append([]float64(nil), capC.Sensor...), Probe: append([]float64(nil), capC.Probe...)}
	capR, err := saR.CapturePT(pt, testKey, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Sensor {
		if snap.Sensor[i] != capR.Sensor[i] || snap.Probe[i] != capR.Probe[i] {
			t.Fatalf("stuck-at: sample %d differs between engines", i)
		}
	}
}
