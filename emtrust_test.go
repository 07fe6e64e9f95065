package emtrust_test

import (
	"sync"
	"testing"

	"emtrust"
)

// Devices are expensive to build; share them across the facade tests.
var (
	devOnce sync.Once
	devInst *emtrust.Device
	devErr  error
)

func device(t *testing.T) *emtrust.Device {
	t.Helper()
	devOnce.Do(func() {
		devInst, devErr = emtrust.NewDevice(emtrust.DeviceOptions{Measurement: true, Seed: 7})
	})
	if devErr != nil {
		t.Fatal(devErr)
	}
	return devInst
}

func TestTrojansList(t *testing.T) {
	ks := emtrust.Trojans()
	if len(ks) != 4 {
		t.Fatalf("Trojans() = %v", ks)
	}
	if ks[0] != emtrust.T1AMLeaker || ks[3] != emtrust.T4PowerHog {
		t.Fatalf("order wrong: %v", ks)
	}
	for _, k := range ks {
		if emtrust.Describe(k) == "" {
			t.Errorf("no description for %v", k)
		}
	}
}

func TestDeviceDefaults(t *testing.T) {
	dev := device(t)
	tr, err := dev.CaptureTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 32*dev.Chip().Config().Power.SamplesPerCycle {
		t.Fatalf("default capture length %d", len(tr.Samples))
	}
	s, p, err := dev.CaptureBoth()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) != len(p.Samples) {
		t.Fatal("channel lengths differ")
	}
	idleS, idleP, err := dev.CaptureIdleBoth(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(idleS.Samples) != 20*dev.Chip().Config().Power.SamplesPerCycle || len(idleP.Samples) != len(idleS.Samples) {
		t.Fatal("idle capture length wrong")
	}
}

func TestGoldenDeviceRejectsTrojanControl(t *testing.T) {
	dev, err := emtrust.NewDevice(emtrust.DeviceOptions{Golden: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetTrojan(emtrust.T1AMLeaker, true); err == nil {
		t.Fatal("golden device must not accept Trojan triggers")
	}
	// EnableA2 must be a harmless no-op on a golden device.
	dev.EnableA2(true)
	if _, err := dev.CaptureIdle(16); err != nil {
		t.Fatal(err)
	}
}

func TestFitNeedsGolden(t *testing.T) {
	if _, err := emtrust.Fit(nil); err == nil {
		t.Fatal("Fit(nil) must error")
	}
}

// CollectGolden rejects a negative count instead of panicking, and
// returns an empty set for zero.
func TestCollectGoldenCount(t *testing.T) {
	dev := device(t)
	if _, err := dev.CollectGolden(-1); err == nil {
		t.Fatal("CollectGolden(-1) must error")
	}
	golden, err := dev.CollectGolden(0)
	if err != nil || len(golden) != 0 {
		t.Fatalf("CollectGolden(0) = %d traces, %v; want an empty set", len(golden), err)
	}
}

func TestEndToEndDetection(t *testing.T) {
	dev := device(t)
	golden, err := dev.CollectGolden(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != 30 {
		t.Fatalf("collected %d", len(golden))
	}
	det, err := emtrust.Fit(golden)
	if err != nil {
		t.Fatal(err)
	}

	// Clean traces stay quiet.
	falseAlarms := 0
	for i := 0; i < 10; i++ {
		tr, err := dev.CaptureTrace()
		if err != nil {
			t.Fatal(err)
		}
		if det.Evaluate(tr).Alarm() {
			falseAlarms++
		}
	}
	if falseAlarms > 2 {
		t.Fatalf("%d/10 false alarms on a dormant chip", falseAlarms)
	}

	// The loud Trojans trip the detector.
	for _, k := range []emtrust.TrojanKind{emtrust.T1AMLeaker, emtrust.T2LeakageCurrent} {
		if err := dev.SetTrojan(k, true); err != nil {
			t.Fatal(err)
		}
		hits := 0
		for i := 0; i < 5; i++ {
			tr, err := dev.CaptureTrace()
			if err != nil {
				t.Fatal(err)
			}
			if det.Evaluate(tr).Alarm() {
				hits++
			}
		}
		if err := dev.SetTrojan(k, false); err != nil {
			t.Fatal(err)
		}
		if hits < 4 {
			t.Errorf("%v: only %d/5 alarms", k, hits)
		}
	}
}

func TestDeviceCustomOptions(t *testing.T) {
	key := make([]byte, 16)
	pt := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
		pt[i] = byte(255 - i)
	}
	dev, err := emtrust.NewDevice(emtrust.DeviceOptions{
		Golden:    true,
		Seed:      11,
		Cycles:    40,
		Key:       key,
		Plaintext: pt,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dev.CaptureTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 40*dev.Chip().Config().Power.SamplesPerCycle {
		t.Fatal("custom cycle count ignored")
	}
}

func TestDeviceReproducibility(t *testing.T) {
	build := func() []float64 {
		dev, err := emtrust.NewDevice(emtrust.DeviceOptions{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := dev.CaptureTrace()
		if err != nil {
			t.Fatal(err)
		}
		return tr.Samples
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different traces at sample %d", i)
		}
	}
}
