// Package analog models the A2-style analog hardware Trojan (Yang et al.,
// S&P 2016) that the paper simulates: a six-transistor charge pump that
// siphons charge from a victim wire's toggles onto a capacitor and fires
// its payload only when the wire toggles fast enough for the accumulated
// voltage to beat the leakage. Digital side-channel detectors miss it; the
// paper detects the fast-flipping trigger activity in the EM spectrum
// (Section III-E, Figure 4).
package analog

import "fmt"

// A2Config sets the electrical behaviour of the charge-pump trigger.
type A2Config struct {
	// ChargePerEdge is the capacitor voltage step added by one rising
	// edge of the victim wire (volts).
	ChargePerEdge float64
	// LeakPerCycle is the fraction of the capacitor voltage lost per
	// clock cycle to the intentional leakage path. It sets the minimum
	// toggle rate that can ever fire the Trojan.
	LeakPerCycle float64
	// Threshold is the Schmitt-trigger detect voltage (volts).
	Threshold float64
	// Hysteresis is the release voltage below which the trigger drops
	// out again (volts); must be below Threshold.
	Hysteresis float64
	// PumpCharge is the supply charge drawn per pump event (coulombs);
	// tiny, which is what makes A2 invisible to power fingerprinting.
	PumpCharge float64
	// TriggerCharge is the supply charge drawn per fast flip of the
	// trigger/retention stage while the Trojan is firing (coulombs).
	TriggerCharge float64
	// TriggerTogglesPerCycle is how many times the trigger stage flips
	// per clock cycle while firing; >1 creates the "extra frequency
	// spots or increased amplitude" of Section III-E.
	TriggerTogglesPerCycle int
	// AreaGE is the Trojan's area in NAND2 gate equivalents. The six
	// transistors are tiny, but the charge-pump capacitor dominates:
	// the paper reports 0.087% of the AES circuit area, which at this
	// repository's AES size corresponds to ~34 GE of silicon.
	AreaGE float64
}

// DefaultA2Config returns the configuration used in the experiments:
// tuned so a wire toggling every other cycle (a clock-division signal)
// fires the Trojan within a few hundred cycles, while toggles spaced 10+
// cycles apart never accumulate.
func DefaultA2Config() A2Config {
	return A2Config{
		ChargePerEdge:          0.05,
		LeakPerCycle:           0.02,
		Threshold:              1.0,
		Hysteresis:             0.6,
		PumpCharge:             2e-15,
		TriggerCharge:          8e-12,
		TriggerTogglesPerCycle: 2,
		AreaGE:                 34,
	}
}

// A2 is one instance of the analog Trojan attached to a victim wire.
type A2 struct {
	cfg       A2Config
	v         float64 // capacitor voltage
	prev      uint8   // previous victim value
	firing    bool
	fireCount int
}

// NewA2 creates an A2 Trojan with the given electrical configuration.
// It panics if the configuration is not physical (a programming error).
func NewA2(cfg A2Config) *A2 {
	if cfg.ChargePerEdge <= 0 || cfg.LeakPerCycle < 0 || cfg.LeakPerCycle >= 1 {
		panic(fmt.Sprintf("analog: invalid A2 config %+v", cfg))
	}
	if cfg.Hysteresis > cfg.Threshold {
		panic("analog: A2 hysteresis above threshold")
	}
	return &A2{cfg: cfg}
}

// Config returns the Trojan's configuration.
func (a *A2) Config() A2Config { return a.cfg }

// Voltage returns the current capacitor voltage.
func (a *A2) Voltage() float64 { return a.v }

// Firing reports whether the payload is currently asserted.
func (a *A2) Firing() bool { return a.firing }

// Reset discharges the capacitor and clears the payload.
func (a *A2) Reset() {
	a.v = 0
	a.prev = 0
	a.firing = false
	a.fireCount = 0
}

// CycleResult reports what the Trojan did during one clock cycle; the
// power model turns it into supply current.
type CycleResult struct {
	// Pumped is true when a rising victim edge pumped the capacitor.
	Pumped bool
	// Charge is the total supply charge drawn this cycle (coulombs).
	Charge float64
	// FastToggles is the number of trigger-stage flips this cycle (0
	// while dormant); each flip happens at an even sub-cycle phase, so
	// the resulting current rides at a multiple of the clock.
	FastToggles int
	// Firing reports the payload state after this cycle.
	Firing bool
}

// Step advances the Trojan by one clock cycle given the victim wire's
// settled value this cycle.
func (a *A2) Step(victim uint8) CycleResult {
	var res CycleResult
	if victim != 0 {
		victim = 1
	}
	if victim == 1 && a.prev == 0 {
		a.v += a.cfg.ChargePerEdge
		res.Pumped = true
		res.Charge += a.cfg.PumpCharge
	}
	a.prev = victim
	a.v *= 1 - a.cfg.LeakPerCycle

	switch {
	case !a.firing && a.v >= a.cfg.Threshold:
		a.firing = true
	case a.firing && a.v < a.cfg.Hysteresis:
		a.firing = false
	}
	if a.firing {
		a.fireCount++
		res.FastToggles = a.cfg.TriggerTogglesPerCycle
		res.Charge += a.cfg.TriggerCharge * float64(res.FastToggles)
	}
	res.Firing = a.firing
	return res
}
