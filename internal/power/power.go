// Package power turns gate-level switching activity into per-tile supply
// current waveforms, the "current distribution network" stage of the
// paper's EM simulation flow: every cell toggle deposits its library
// switching charge as a sub-cycle current pulse at the cell's tile, the
// clock tree draws a charge per flip-flop every cycle, and static
// injections model the T2 crowbar leakage and the A2 charge pump.
package power

import (
	"fmt"
	"math"
	"math/rand"

	"emtrust/internal/layout"
	"emtrust/internal/logic"
)

// Config sets the electrical and discretization parameters.
type Config struct {
	// ClockHz is the system clock. The paper's AM Trojan leaks at
	// 750 kHz = clock/16, so the experiments use 12 MHz.
	ClockHz float64
	// SamplesPerCycle is the sub-cycle current resolution.
	SamplesPerCycle int
	// PulseFraction is the fraction of the clock period over which a
	// switching-charge pulse is spread.
	PulseFraction float64
	// RiseFraction shapes the double-exponential pulse: the rise time
	// constant as a fraction of the pulse length.
	RiseFraction float64
	// ClockPinCharge is the charge drawn by one flip-flop's clock pin
	// every cycle (coulombs); it produces the clock fundamental that
	// dominates the spectra of Figures 4 and 6.
	ClockPinCharge float64
	// CrowbarCurrent is the static current of one T2 leakage pair
	// while conducting (amps).
	CrowbarCurrent float64
	// VDD is the supply voltage, used to convert explicit net load
	// capacitance into switching charge.
	VDD float64
	// VariationSigma is the fractional standard deviation of per-cell
	// switching charge across fabricated chips (process variation).
	// Zero disables variation; each chip draws its own sample from
	// VariationSeed.
	VariationSigma float64
	// CornerSigma is the fractional standard deviation of a chip-wide
	// charge multiplier (the global process corner: faster or slower
	// silicon overall). Per-cell variation averages out over a tile;
	// the corner shift is what distinguishes two dies macroscopically.
	CornerSigma float64
	// VariationSeed selects the chip's process sample.
	VariationSeed int64
}

// DefaultConfig returns the 180 nm / 12 MHz parameters used throughout
// the experiments.
func DefaultConfig() Config {
	return Config{
		ClockHz:         12e6,
		SamplesPerCycle: 16,
		PulseFraction:   0.35,
		RiseFraction:    0.15,
		ClockPinCharge:  15e-15,
		CrowbarCurrent:  0.2e-6,
		VDD:             1.8,
	}
}

// Dt returns the waveform sample spacing in seconds.
func (c Config) Dt() float64 { return 1 / (c.ClockHz * float64(c.SamplesPerCycle)) }

// Recorder accumulates switching activity for one trace capture.
type Recorder struct {
	cfg    Config
	grid   *layout.TileGrid
	charge []float64 // per-cell switching charge (indexed by cell)
	ffTile []int     // flip-flop cell -> tile, for the clock tree model
	// clockCharge is the per-tile clock-tree charge drawn every cycle
	// (the ffTile walk pre-summed), so EndCycle pays one add per tile
	// instead of one per flip-flop.
	clockCharge []float64

	pulse       []float64 // unit-charge pulse shape (amps at dt spacing)
	cycleCharge []float64 // per-tile charge accumulated this cycle
	static      []float64 // per-tile static current this cycle (amps)
	sub         []subEvent
	currents    [][]float64 // per-tile waveform
	cycle       int
	numCycles   int
}

type subEvent struct {
	tile   int
	charge float64
	count  int
}

// NewRecorder builds a recorder for the placed netlist.
func NewRecorder(cfg Config, fp *layout.Floorplan) (*Recorder, error) {
	if cfg.ClockHz <= 0 || cfg.SamplesPerCycle <= 0 {
		return nil, fmt.Errorf("power: invalid config %+v", cfg)
	}
	if cfg.PulseFraction <= 0 || cfg.PulseFraction > 1 {
		return nil, fmt.Errorf("power: pulse fraction %g out of (0,1]", cfg.PulseFraction)
	}
	n := fp.Netlist()
	r := &Recorder{
		cfg:    cfg,
		grid:   fp.Grid,
		charge: make([]float64, len(n.Cells)),
	}
	var vrng *rand.Rand
	corner := 1.0
	if cfg.VariationSigma > 0 || cfg.CornerSigma > 0 {
		vrng = rand.New(rand.NewSource(cfg.VariationSeed))
		if cfg.CornerSigma > 0 {
			corner = 1 + cfg.CornerSigma*vrng.NormFloat64()
			if corner < 0.1 {
				corner = 0.1
			}
		}
	}
	for i, c := range n.Cells {
		r.charge[i] = (c.Type.SwitchingCharge() + c.Load*cfg.VDD) * corner
		if vrng != nil && cfg.VariationSigma > 0 {
			f := 1 + cfg.VariationSigma*vrng.NormFloat64()
			if f < 0.1 {
				f = 0.1
			}
			r.charge[i] *= f
		}
		if c.Type.IsSequential() {
			r.ffTile = append(r.ffTile, fp.Grid.CellTile[i])
		}
	}
	r.pulse = pulseShape(cfg)
	r.cycleCharge = make([]float64, fp.Grid.NumTiles())
	r.static = make([]float64, fp.Grid.NumTiles())
	r.clockCharge = make([]float64, fp.Grid.NumTiles())
	for _, tile := range r.ffTile {
		r.clockCharge[tile] += cfg.ClockPinCharge
	}
	return r, nil
}

// pulseShape builds the unit-charge double-exponential current pulse.
func pulseShape(cfg Config) []float64 {
	n := int(float64(cfg.SamplesPerCycle)*cfg.PulseFraction + 0.5)
	if n < 1 {
		n = 1
	}
	dt := cfg.Dt()
	tauR := cfg.RiseFraction * float64(n) * dt
	tauF := float64(n) * dt / 3
	if tauR <= 0 {
		tauR = dt / 4
	}
	shape := make([]float64, n)
	sum := 0.0
	for i := range shape {
		t := (float64(i) + 0.5) * dt
		shape[i] = math.Exp(-t/tauF) - math.Exp(-t/tauR)
		sum += shape[i] * dt
	}
	if sum == 0 {
		shape[0] = 1 / dt
		return shape
	}
	for i := range shape {
		shape[i] /= sum // integral = 1 coulomb per unit charge
	}
	return shape
}

// Begin starts a capture of numCycles clock cycles. Waveform buffers are
// reused across captures when the dimensions still fit, which is why
// Capture.Tiles documents its slices as valid only until the next
// capture on the same chip.
func (r *Recorder) Begin(numCycles int) {
	r.numCycles = numCycles
	r.cycle = 0
	total := numCycles * r.cfg.SamplesPerCycle
	if len(r.currents) != r.grid.NumTiles() {
		r.currents = make([][]float64, r.grid.NumTiles())
	}
	for t := range r.currents {
		if cap(r.currents[t]) >= total {
			w := r.currents[t][:total]
			for i := range w {
				w[i] = 0
			}
			r.currents[t] = w
		} else {
			r.currents[t] = make([]float64, total)
		}
	}
	for t := range r.cycleCharge {
		r.cycleCharge[t] = 0
		r.static[t] = 0
	}
	r.sub = r.sub[:0]
}

// OnToggle is the logic.Simulator callback: it books the toggling cell's
// switching charge at its tile for the current cycle.
func (r *Recorder) OnToggle(cell int, _ bool) {
	r.cycleCharge[r.grid.CellTile[cell]] += r.charge[cell]
}

// DrainToggles books a batch of toggle events (logic.Simulator.TakeToggles)
// for the current cycle. It walks the batch in occurrence order, adding
// each cell's charge exactly as the per-event OnToggle path would, so the
// accumulated waveforms are bit-identical to per-callback recording while
// paying one call per cycle instead of one per toggle.
func (r *Recorder) DrainToggles(events []logic.ToggleEvent) {
	cycleCharge, tile, charge := r.cycleCharge, r.grid.CellTile, r.charge
	for _, e := range events {
		cell := e.Cell()
		cycleCharge[tile[cell]] += charge[cell]
	}
}

// AddStaticCurrent injects a constant current (amps) at a tile for the
// duration of the current cycle (T2's crowbar leakage).
func (r *Recorder) AddStaticCurrent(tile int, amps float64) {
	r.static[tile] += amps
}

// AddFastToggles injects count evenly spaced charge pulses inside the
// current cycle (the A2 trigger's fast flipping), each carrying the given
// charge.
func (r *Recorder) AddFastToggles(tile int, count int, charge float64) {
	if count <= 0 || charge == 0 {
		return
	}
	r.sub = append(r.sub, subEvent{tile: tile, charge: charge, count: count})
}

// EndCycle flushes the cycle's booked activity into the waveforms and
// advances to the next cycle. Calling it more than numCycles times is an
// error.
func (r *Recorder) EndCycle() error {
	if r.cycle >= r.numCycles {
		return fmt.Errorf("power: EndCycle past the %d-cycle capture", r.numCycles)
	}
	s := r.cfg.SamplesPerCycle
	base := r.cycle * s
	// Clock tree: every flip-flop's clock pin draws charge each cycle
	// (pre-summed per tile in clockCharge), on top of the cycle's
	// switching charge.
	for tile, q := range r.cycleCharge {
		if tq := q + r.clockCharge[tile]; tq != 0 {
			r.deposit(tile, base, tq)
		}
		if q != 0 {
			r.cycleCharge[tile] = 0
		}
	}
	for tile, amps := range r.static {
		if amps != 0 {
			w := r.currents[tile]
			for k := 0; k < s && base+k < len(w); k++ {
				w[base+k] += amps
			}
			r.static[tile] = 0
		}
	}
	for _, ev := range r.sub {
		stride := s / ev.count
		if stride < 1 {
			stride = 1
		}
		// Center each pulse in its sub-interval so the injected tones
		// sit in quadrature with the cycle-aligned clock pulses and
		// always add energy instead of sometimes cancelling.
		for j := 0; j < ev.count; j++ {
			r.deposit(ev.tile, base+j*stride+stride/2, ev.charge)
		}
	}
	r.sub = r.sub[:0]
	r.cycle++
	return nil
}

// deposit adds a charge pulse starting at sample index start.
func (r *Recorder) deposit(tile, start int, q float64) {
	w := r.currents[tile]
	for k, p := range r.pulse {
		i := start + k
		if i >= len(w) {
			break
		}
		w[i] += q * p
	}
}

// Currents returns the per-tile waveforms captured so far.
func (r *Recorder) Currents() [][]float64 { return r.currents }

// Dt returns the waveform sample spacing in seconds.
func (r *Recorder) Dt() float64 { return r.cfg.Dt() }
