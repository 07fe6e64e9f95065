package analog

import (
	"math"
	"testing"
)

// FireCount returns how many cycles the Trojan has spent firing.
func (a *A2) FireCount() int { return a.fireCount }

// MaxVoltage returns the steady-state capacitor voltage reached when the
// victim toggles once per period cycles: charge/period balancing leak.
func (a *A2) MaxVoltage(period int) float64 {
	if period <= 0 {
		return 0
	}
	// One edge adds ChargePerEdge, then period cycles of decay; solve
	// the geometric fixed point v = (v + c) * (1-l)^period.
	decay := 1.0
	for i := 0; i < period; i++ {
		decay *= 1 - a.cfg.LeakPerCycle
	}
	if decay >= 1 {
		return 0
	}
	return a.cfg.ChargePerEdge * decay / (1 - decay)
}

// run drives the Trojan with a victim wire toggling at the given period
// (one rising edge per period cycles) for n cycles and returns whether it
// ever fired.
func run(a *A2, period, n int) bool {
	fired := false
	for i := 0; i < n; i++ {
		var v uint8
		if period > 0 && (i%period) < (period+1)/2 {
			v = 1
		}
		res := a.Step(v)
		if res.Firing {
			fired = true
		}
	}
	return fired
}

func TestA2FiresOnFastToggling(t *testing.T) {
	a := NewA2(DefaultA2Config())
	if !run(a, 2, 1000) {
		t.Fatal("A2 must fire on a divide-by-2 clock signal")
	}
}

func TestA2IgnoresSlowToggling(t *testing.T) {
	for _, period := range []int{8, 16, 64} {
		a := NewA2(DefaultA2Config())
		if run(a, period, 20000) {
			t.Fatalf("A2 fired on slow toggling (period %d) — the stealth property is broken", period)
		}
	}
}

func TestA2IgnoresConstantWire(t *testing.T) {
	a := NewA2(DefaultA2Config())
	for i := 0; i < 5000; i++ {
		if a.Step(1).Firing {
			t.Fatal("A2 fired on a constant-high wire")
		}
	}
	if a.Voltage() > a.Config().ChargePerEdge {
		t.Fatal("a single rising edge must not accumulate")
	}
}

func TestA2DecaysAndReleases(t *testing.T) {
	a := NewA2(DefaultA2Config())
	run(a, 2, 1000)
	if !a.Firing() {
		t.Fatal("precondition: A2 firing")
	}
	// Starve the pump: the capacitor leaks down through hysteresis.
	for i := 0; i < 2000 && a.Firing(); i++ {
		a.Step(0)
	}
	if a.Firing() {
		t.Fatal("A2 never released after the victim went quiet")
	}
	if a.Voltage() >= a.Config().Hysteresis {
		t.Fatal("voltage did not decay below hysteresis")
	}
}

func TestA2ChargeAccounting(t *testing.T) {
	cfg := DefaultA2Config()
	a := NewA2(cfg)
	res := a.Step(1) // rising edge
	if !res.Pumped {
		t.Fatal("rising edge must pump")
	}
	if res.Charge != cfg.PumpCharge {
		t.Fatalf("pump charge = %g, want %g", res.Charge, cfg.PumpCharge)
	}
	res = a.Step(1) // level high, no edge
	if res.Pumped || res.Charge != 0 {
		t.Fatalf("no edge must draw nothing, got %+v", res)
	}
}

func TestA2FastTogglesWhileFiring(t *testing.T) {
	cfg := DefaultA2Config()
	a := NewA2(cfg)
	run(a, 2, 1000)
	a.Step(1)        // may include a pump edge
	res := a.Step(1) // level high: firing current only
	if !res.Firing {
		t.Fatal("expected firing")
	}
	if res.FastToggles != cfg.TriggerTogglesPerCycle {
		t.Fatalf("FastToggles = %d, want %d", res.FastToggles, cfg.TriggerTogglesPerCycle)
	}
	wantCharge := cfg.TriggerCharge * float64(cfg.TriggerTogglesPerCycle)
	if math.Abs(res.Charge-wantCharge) > 1e-20 {
		t.Fatalf("firing charge = %g, want %g", res.Charge, wantCharge)
	}
	if a.FireCount() == 0 {
		t.Fatal("FireCount not accumulating")
	}
}

func TestA2Reset(t *testing.T) {
	a := NewA2(DefaultA2Config())
	run(a, 2, 1000)
	a.Reset()
	if a.Voltage() != 0 || a.Firing() || a.FireCount() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestA2MaxVoltage(t *testing.T) {
	a := NewA2(DefaultA2Config())
	// Fast toggling must clear the threshold, slow must not.
	if a.MaxVoltage(2) < a.Config().Threshold {
		t.Fatal("divide-by-2 steady state below threshold")
	}
	if a.MaxVoltage(8) > a.Config().Threshold/2 {
		t.Fatal("period-8 steady state should be well below threshold")
	}
	if a.MaxVoltage(0) != 0 {
		t.Fatal("period 0 must give 0")
	}
}

func TestA2ConfigValidation(t *testing.T) {
	bad := DefaultA2Config()
	bad.ChargePerEdge = 0
	mustPanic(t, func() { NewA2(bad) })
	bad = DefaultA2Config()
	bad.LeakPerCycle = 1
	mustPanic(t, func() { NewA2(bad) })
	bad = DefaultA2Config()
	bad.Hysteresis = bad.Threshold + 1
	mustPanic(t, func() { NewA2(bad) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
