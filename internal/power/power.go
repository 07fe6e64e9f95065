// Package power turns gate-level switching activity into per-tile supply
// current waveforms, the "current distribution network" stage of the
// paper's EM simulation flow: every cell toggle deposits its library
// switching charge as a sub-cycle current pulse at the cell's tile, the
// clock tree draws a charge per flip-flop every cycle, and static
// injections model the T2 crowbar leakage and the A2 charge pump.
//
// A Recorder also projects the activity onto measurement coils. A
// coil's flux is linear in the tile currents, so each cycle's per-tile
// charges are weighted by the coil's coupling and summed before the
// pulse convolution, straight into one whole-window flux waveform per
// coil. Recorders from NewRecorder and Fork keep the per-tile waveforms
// as well, which scalar captures hand out as Capture.Tiles; a flux lane
// (FluxLane) records one lane of a bit-parallel capture and keeps only
// the flux. Both run the one projection, so a lane's flux is
// bit-identical to a tile-keeping recorder's for the same activity, and
// both match emfield's synthesis over the tile waveforms to rounding
// (the sums run in another order).
package power

import (
	"fmt"
	"math"
	"math/bits"

	"emtrust/internal/frand"
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
	// clockCharge is the per-tile clock-tree charge drawn every cycle
	// (every flip-flop's clock-pin charge pre-summed by tile), so
	// EndCycle pays one add per tile instead of one per flip-flop.
	clockCharge []float64
	pulse       []float64 // unit-charge pulse shape (amps at dt spacing)
	// coils[k][tile] is coil k's flux per ampere of tile current.
	coils [][]float64

	cycleCharge []float64 // per-tile charge accumulated this cycle
	static      []float64 // per-tile static current this cycle (amps)
	sub         []subEvent
	// currents holds the per-tile waveforms; nil on a flux lane, which
	// keeps none. flux[k] is coil k's flux waveform.
	currents  [][]float64
	flux      [][]float64
	cycle     int
	numCycles int
}

type subEvent struct {
	tile   int
	charge float64
	count  int
}

// NewRecorder builds a recorder for the placed netlist that keeps the
// per-tile waveforms and projects the activity onto the given coils:
// coils[k][tile] is coil k's flux per ampere of tile current, one entry
// per tile of fp's grid.
func NewRecorder(cfg Config, fp *layout.Floorplan, coils ...[]float64) (*Recorder, error) {
	if cfg.ClockHz <= 0 || cfg.SamplesPerCycle <= 0 {
		return nil, fmt.Errorf("power: invalid config %+v", cfg)
	}
	if cfg.PulseFraction <= 0 || cfg.PulseFraction > 1 {
		return nil, fmt.Errorf("power: pulse fraction %g out of (0,1]", cfg.PulseFraction)
	}
	n := fp.Netlist()
	tiles := fp.Grid.NumTiles()
	r := &Recorder{
		cfg:         cfg,
		grid:        fp.Grid,
		charge:      make([]float64, len(n.Cells)),
		clockCharge: make([]float64, tiles),
		pulse:       pulseShape(cfg),
		coils:       coils,
	}
	var vrng *frand.Rand
	corner := 1.0
	if cfg.VariationSigma > 0 || cfg.CornerSigma > 0 {
		vrng = frand.NewRand(cfg.VariationSeed)
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
			r.clockCharge[fp.Grid.CellTile[i]] += cfg.ClockPinCharge
		}
	}
	return r.Fork(), nil
}

// Fork returns a recorder for another chip of r's build: it shares r's
// immutable per-cell charge, clock-tree, pulse and coil tables, so it
// books exactly the charges r would, and owns its per-capture buffers.
// It is what NewRecorder with r's config, floorplan and coils would
// return, without recomputing the tables.
func (r *Recorder) Fork() *Recorder {
	f := r.FluxLane()
	f.currents = make([][]float64, r.grid.NumTiles())
	return f
}

// FluxLane returns a recorder for one lane of a bit-parallel capture:
// Fork without the per-tile waveforms. It books the same charges and
// runs the same projection, so its flux is bit-identical to the flux
// r's forks record for the same activity; Currents returns nil.
func (r *Recorder) FluxLane() *Recorder {
	tiles := r.grid.NumTiles()
	return &Recorder{
		cfg: r.cfg, grid: r.grid, charge: r.charge, clockCharge: r.clockCharge, pulse: r.pulse, coils: r.coils,
		cycleCharge: make([]float64, tiles),
		static:      make([]float64, tiles),
		flux:        make([][]float64, len(r.coils)),
	}
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

// WideToggles returns a logic.WideState.OnWideToggle hook that books
// the toggle words of a bit-parallel capture on its lanes, which must
// be FluxLanes of one recorder: it loads the toggled cell's tile and
// charge once per word and adds the charge on every lane whose bit is
// set in diff. Each lane receives its toggles in its scalar order, so
// it accumulates exactly what DrainToggles would.
func WideToggles(lanes []*Recorder) func(cell int32, diff, nv uint64) {
	tile, charge := lanes[0].grid.CellTile, lanes[0].charge
	cc := make([][]float64, len(lanes))
	for l, r := range lanes {
		cc[l] = r.cycleCharge
	}
	return func(cell int32, diff, _ uint64) {
		t, q := tile[cell], charge[cell]
		for diff != 0 {
			l := bits.TrailingZeros64(diff)
			diff &= diff - 1
			cc[l][t] += q
		}
	}
}

// Begin starts a capture of numCycles clock cycles. Per-tile waveform
// buffers are reused across captures when the dimensions still fit,
// which is why Capture.Tiles documents its slices as valid only until
// the next capture on the same chip. The flux waveforms are new on
// every Begin, so those Flux returned stay with the caller.
func (r *Recorder) Begin(numCycles int) {
	r.numCycles = numCycles
	r.cycle = 0
	total := numCycles * r.cfg.SamplesPerCycle
	for k := range r.flux {
		r.flux[k] = make([]float64, total)
	}
	for t, w := range r.currents {
		if cap(w) >= total {
			r.currents[t] = w[:total]
			clear(r.currents[t])
		} else {
			r.currents[t] = make([]float64, total)
		}
	}
	clear(r.cycleCharge)
	clear(r.static)
	r.sub = r.sub[:0]
}

// DrainToggles books a batch of toggle events (logic.Simulator.TakeToggles)
// for the current cycle. It walks the batch in occurrence order, adding
// each cell's charge exactly as booking every toggle as it happens
// would, so the accumulated waveforms are bit-identical to per-event
// booking while paying one call per cycle instead of one per toggle.
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
// advances to the next cycle. Calling it more than numCycles times is
// an error.
//
// A coil's flux is linear in the tile currents, so each coil's share of
// the cycle is projected before the pulse convolution: the cycle's
// switching plus clock-tree charge, weighted by the coil's per-tile
// coupling and summed in ascending tile order, scales one unit pulse;
// the static current is projected the same way, and each fast-toggle
// pulse is scaled by its tile's coupling. Every sample lands straight in
// the whole-window flux waveform, so nothing carries past the cycle.
func (r *Recorder) EndCycle() error {
	if r.cycle >= r.numCycles {
		return fmt.Errorf("power: EndCycle past the %d-cycle capture", r.numCycles)
	}
	s := r.cfg.SamplesPerCycle
	// base is the cycle's first sample, stop the end of its samples and
	// end the window's: samples at or past end are dropped.
	base, end := r.cycle*s, r.numCycles*s
	stop := min(base+s, end)
	cyc := r.cycleCharge
	clock, static := r.clockCharge[:len(cyc)], r.static[:len(cyc)]
	for k, m := range r.coils {
		m := m[:len(cyc)]
		var q, amps float64
		for tile, c := range cyc {
			q += m[tile] * (c + clock[tile])
			amps += m[tile] * static[tile]
		}
		f := r.flux[k]
		r.deposit(f, base, end, q)
		addStatic(f[base:stop], amps)
		for _, ev := range r.sub {
			r.burst(f, base, end, ev.count, m[ev.tile]*ev.charge)
		}
	}
	for tile, w := range r.currents {
		r.deposit(w, base, end, cyc[tile]+clock[tile])
		addStatic(w[base:stop], static[tile])
	}
	if r.currents != nil {
		for _, ev := range r.sub {
			r.burst(r.currents[ev.tile], base, end, ev.count, ev.charge)
		}
	}
	clear(r.cycleCharge)
	clear(r.static)
	r.sub = r.sub[:0]
	r.cycle++
	return nil
}

// Repeat ends the capture early: it fills every cycle from the current
// one to the last with a copy of the cycle period cycles before it, as
// EndCycle would if each of those cycles booked what the cycle period
// before it booked. A cycle's pulse and static current stay within its
// own samples (NewRecorder rejects a pulse fraction above 1), so the
// copy is exact whenever no fast-toggle burst spilled into the copied
// samples; bursts may spill into the next cycle.
func (r *Recorder) Repeat(period int) error {
	if period < 1 || period > r.cycle {
		return fmt.Errorf("power: repeat of period %d after %d cycles", period, r.cycle)
	}
	s := r.cfg.SamplesPerCycle
	for _, w := range r.flux {
		repeatTail(w, r.cycle*s, period*s)
	}
	for _, w := range r.currents {
		repeatTail(w, r.cycle*s, period*s)
	}
	r.cycle = r.numCycles
	return nil
}

// repeatTail sets every sample of w from sample from on to the sample
// lag before it.
func repeatTail(w []float64, from, lag int) {
	for i := from; i < len(w); i += lag {
		copy(w[i:min(i+lag, len(w))], w[i-lag:])
	}
}

// deposit adds a pulse carrying charge q to w from sample start on,
// dropping the samples at or past end.
func (r *Recorder) deposit(w []float64, start, end int, q float64) {
	end = min(end, start+len(r.pulse))
	if start >= end || q == 0 {
		return
	}
	w = w[start:end]
	for k, p := range r.pulse[:len(w)] {
		w[k] += q * p
	}
}

// burst deposits count evenly spaced pulses of charge q each into the
// cycle starting at sample base. Each pulse is centered in its
// sub-interval so the injected tones sit in quadrature with the
// cycle-aligned clock pulses and always add energy instead of sometimes
// cancelling.
func (r *Recorder) burst(w []float64, base, end, count int, q float64) {
	stride := max(r.cfg.SamplesPerCycle/count, 1)
	for j := 0; j < count; j++ {
		r.deposit(w, base+j*stride+stride/2, end, q)
	}
}

// addStatic adds a constant current to every sample of w.
func addStatic(w []float64, amps float64) {
	if amps == 0 {
		return
	}
	for i := range w {
		w[i] += amps
	}
}

// Currents returns the per-tile waveforms captured so far: nil on a
// flux lane.
func (r *Recorder) Currents() [][]float64 { return r.currents }

// Flux returns the per-coil flux waveforms, in the coils' order. They
// stay with the caller: the next Begin allocates new ones.
func (r *Recorder) Flux() [][]float64 { return r.flux }

// Dt returns the waveform sample spacing in seconds.
func (r *Recorder) Dt() float64 { return r.cfg.Dt() }
