package demod

import (
	"math"
	"math/rand"
	"testing"

	"emtrust/internal/aes"
	"emtrust/internal/chip"
	"emtrust/internal/frand"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// synthOOK builds an on-off-keyed pulse-train trace: bits of symbolLen
// samples, pulses every pulsePeriod samples while "on", plus noise.
func synthOOK(bits []uint8, symbolLen, pulsePeriod, phase int, noise float64, rng *rand.Rand) []float64 {
	x := make([]float64, len(bits)*symbolLen)
	for i := range x {
		sym := ((i - phase) / symbolLen)
		if i-phase < 0 {
			sym = 0
		}
		if sym >= len(bits) {
			sym = len(bits) - 1
		}
		if bits[sym] == 1 && (i-phase)%pulsePeriod == 0 && i >= phase {
			x[i] = 1.0
		}
		x[i] += rng.NormFloat64() * noise
	}
	return x
}

func TestDemodulateSyntheticOOK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bits := []uint8{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	const symbolLen = 256
	const pulsePeriod = 128
	const dt = 5e-9
	x := synthOOK(bits, symbolLen, pulsePeriod, 64, 0.02, rng)
	cfg := OOKConfig{
		PulseHz:       1 / (float64(pulsePeriod) * dt),
		SymbolSamples: symbolLen,
		WindowSamples: pulsePeriod,
		HopSamples:    16,
	}
	res, err := DemodulateOOK(x, dt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rot, errs, ok := MatchRotation(res.Bits, bits, 1)
	if !ok {
		t.Fatalf("no rotation matches: got %v want %v (rot %d errs %d)", res.Bits, bits, rot, errs)
	}
	if res.Contrast <= 1 {
		t.Fatalf("contrast %g too low", res.Contrast)
	}
}

func TestDemodulateValidation(t *testing.T) {
	if _, err := DemodulateOOK(nil, 1e-9, OOKConfig{}); err == nil {
		t.Fatal("zero config must error")
	}
	cfg := OOKConfig{PulseHz: 1e6, SymbolSamples: 8, WindowSamples: 8, HopSamples: 8}
	if _, err := DemodulateOOK(make([]float64, 64), 1e-9, cfg); err == nil {
		t.Fatal("symbol shorter than two hops must error")
	}
	cfg = OOKConfig{PulseHz: 1e6, SymbolSamples: 64, WindowSamples: 16, HopSamples: 8}
	if _, err := DemodulateOOK(make([]float64, 32), 1e-9, cfg); err == nil {
		t.Fatal("trace shorter than two symbols must error")
	}
}

func TestMatchRotation(t *testing.T) {
	want := []uint8{1, 0, 0, 1, 1}
	got := []uint8{0, 1, 1, 1, 0}
	rot, errs, ok := MatchRotation(got, want, 0)
	if !ok || errs != 0 || rot != 2 {
		t.Fatalf("rot=%d errs=%d ok=%v", rot, errs, ok)
	}
	if _, _, ok := MatchRotation(nil, want, 0); ok {
		t.Fatal("empty input must not match")
	}
	// With one flipped bit, matching needs a tolerance.
	got[0] ^= 1
	if _, _, ok := MatchRotation(got, want, 0); ok {
		t.Fatal("should not match exactly")
	}
	if _, errs, ok := MatchRotation(got, want, 1); !ok || errs != 1 {
		t.Fatal("tolerance of 1 should match")
	}
}

func TestChannelConfig(t *testing.T) {
	cfg := ChannelConfig(12e6, 1/(12e6*16))
	if cfg.PulseHz != 6e6 {
		t.Fatalf("receiver frequency %g, want clock/2", cfg.PulseHz)
	}
	if cfg.SymbolSamples != 256 || cfg.WindowSamples != 128 || cfg.HopSamples != 16 {
		t.Fatalf("config %+v", cfg)
	}
}

// TestKeyRecoveryFromSensor is the end-to-end proof: activate Trojan 1
// on the virtual chip, let one encryption load its shift register, then
// demodulate the on-chip sensor's idle-time trace and recover the AES
// key bits from the air.
func TestKeyRecoveryFromSensor(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.WithA2 = false
	c, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeactivateAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetTrojan(trojan.T1AMLeaker, true); err != nil {
		t.Fatal(err)
	}
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	// The encryption loads the key into the Trojan's shift register.
	if _, err := c.CapturePT(make([]byte, 16), key, 20); err != nil {
		t.Fatal(err)
	}
	// Idle capture long enough for > 1.5 key rotations on the air:
	// 128 bits x 16 cycles = 2048 cycles per rotation.
	cap, err := c.CaptureIdle(3400)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker's receiver: same coil, quieter front-end (a radio
	// receiver tuned to one narrow band tolerates far less noise than
	// the broadband trust monitor).
	receiver := chip.Channels{
		Sensor: trace.SimulationChannel(2e-9),
		Probe:  trace.SimulationChannel(2e-9),
	}
	s, _ := receiver.Acquire(cap, frand.NewRand(cfg.Seed))

	dcfg := ChannelConfig(cfg.Power.ClockHz, s.Dt)
	res, err := DemodulateOOK(s.Samples, s.Dt, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bits) < 150 {
		t.Fatalf("recovered only %d bits", len(res.Bits))
	}
	keyBits := aes.BytesToBits(key)
	// Allow a few errors at the symbol edges.
	budget := len(res.Bits) / 20
	rot, errs, ok := MatchRotation(res.Bits, keyBits, budget)
	if !ok {
		t.Fatalf("key not recovered: best rotation %d has %d/%d bit errors", rot, errs, len(res.Bits))
	}
	errRate := float64(errs) / float64(len(res.Bits))
	t.Logf("recovered %d bits, rotation %d, bit error rate %.1f%%, contrast %.1f",
		len(res.Bits), rot, 100*errRate, res.Contrast)
	if math.IsNaN(res.Threshold) {
		t.Fatal("threshold NaN")
	}
}
