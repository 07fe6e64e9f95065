// Package power turns gate-level switching activity into per-tile supply
// current waveforms, the "current distribution network" stage of the
// paper's EM simulation flow: every cell toggle deposits its library
// switching charge as a sub-cycle current pulse at the cell's tile, the
// clock tree draws a charge per flip-flop every cycle, and static
// injections model the T2 crowbar leakage and the A2 charge pump.
//
// A Recorder keeps the whole capture's per-tile waveforms, which the
// scalar captures hand out as Capture.Tiles. Its flux lanes (FluxLane)
// record the lanes of a bit-parallel capture, whose callers want only
// the coils' emfs: they keep one cycle's block of per-tile samples and
// fold it into each coil's flux after every cycle, with the same
// per-sample additions in the same order, so the flux and the emf
// derived from it are bit-identical to the full-waveform path.
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
	cycleCharge []float64 // per-tile charge accumulated this cycle
	static      []float64 // per-tile static current this cycle (amps)
	sub         []subEvent
	// currents holds the per-tile waveforms; in flux mode, each tile's
	// block of the current cycle's samples followed by the samples
	// sub-cycle pulses carry past it.
	currents  [][]float64
	cycle     int
	numCycles int

	// Flux mode (FluxLane): coils[k][tile] is coil k's flux per ampere
	// of tile current, flux[k] its flux waveform, and written[tile] the
	// length of the tile's block prefix that activity reached. Samples
	// at or past written[tile] are zero.
	coils   [][]float64
	flux    [][]float64
	written []int
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
	tiles := fp.Grid.NumTiles()
	r := &Recorder{
		cfg:         cfg,
		grid:        fp.Grid,
		charge:      make([]float64, len(n.Cells)),
		clockCharge: make([]float64, tiles),
		pulse:       pulseShape(cfg),
		cycleCharge: make([]float64, tiles),
		static:      make([]float64, tiles),
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
	return r, nil
}

// Fork returns a recorder for another chip of r's build: it shares r's
// immutable per-cell charge, clock-tree and pulse tables, so it books
// exactly the charges r would, and owns its per-capture buffers. It is
// what NewRecorder with r's config and floorplan would return, without
// recomputing the tables.
func (r *Recorder) Fork() *Recorder {
	tiles := r.grid.NumTiles()
	return &Recorder{
		cfg: r.cfg, grid: r.grid, charge: r.charge, clockCharge: r.clockCharge, pulse: r.pulse,
		cycleCharge: make([]float64, tiles),
		static:      make([]float64, tiles),
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

// FluxLane returns a flux-mode recorder for one lane of a bit-parallel
// capture. Like Fork it shares r's charge, clock and pulse tables, so it
// books the same charges r would, but it keeps only the current cycle's
// block of per-tile samples: each EndCycle folds the block into one
// flux waveform per coil, weights[k][tile] being coil k's flux per
// ampere of tile current, and clears it. Flux returns the waveforms;
// Currents holds no capture waveforms in this mode.
func (r *Recorder) FluxLane(weights ...[]float64) *Recorder {
	tiles, s := r.grid.NumTiles(), r.cfg.SamplesPerCycle
	l := r.Fork()
	l.currents = make([][]float64, tiles)
	l.coils = weights
	l.flux = make([][]float64, len(weights))
	l.written = make([]int, tiles)
	block := make([]float64, tiles*s)
	for t := range l.currents {
		l.currents[t] = block[t*s : (t+1)*s : (t+1)*s]
	}
	return l
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

// Begin starts a capture of numCycles clock cycles. Waveform buffers are
// reused across captures when the dimensions still fit, which is why
// Capture.Tiles documents its slices as valid only until the next
// capture on the same chip. In flux mode Begin allocates new flux
// waveforms, so those Flux returned stay with the caller.
func (r *Recorder) Begin(numCycles int) {
	r.numCycles = numCycles
	r.cycle = 0
	total := numCycles * r.cfg.SamplesPerCycle
	if r.coils != nil {
		for k := range r.flux {
			r.flux[k] = make([]float64, total)
		}
		for t, n := range r.written { // left by an unfinished capture
			clear(r.currents[t][:n])
			r.written[t] = 0
		}
	} else {
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
	}
	for t := range r.cycleCharge {
		r.cycleCharge[t] = 0
		r.static[t] = 0
	}
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
// advances to the next cycle; in flux mode it then folds the cycle's
// samples into the coils' flux. Calling it more than numCycles times is
// an error.
func (r *Recorder) EndCycle() error {
	if r.cycle >= r.numCycles {
		return fmt.Errorf("power: EndCycle past the %d-cycle capture", r.numCycles)
	}
	s := r.cfg.SamplesPerCycle
	// base is the cycle's first sample and end the window's end, as
	// waveform indices or, in flux mode, relative to the cycle's block.
	base, end := r.cycle*s, r.numCycles*s
	if r.coils != nil {
		base, end = 0, end-base
	}
	// Clock tree: every flip-flop's clock pin draws charge each cycle
	// (pre-summed per tile in clockCharge), on top of the cycle's
	// switching charge.
	for tile, q := range r.cycleCharge {
		if tq := q + r.clockCharge[tile]; tq != 0 {
			r.deposit(tile, base, end, tq)
		}
		if q != 0 {
			r.cycleCharge[tile] = 0
		}
	}
	for tile, amps := range r.static {
		if amps != 0 {
			e := min(base+s, end)
			w := r.currents[tile][base:e]
			for k := range w {
				w[k] += amps
			}
			r.wrote(tile, e)
			r.static[tile] = 0
		}
	}
	for _, ev := range r.sub {
		stride := s / ev.count
		if stride < 1 {
			stride = 1
		}
		if r.coils != nil { // the burst may carry further past the cycle than any before
			r.grow(ev.tile, min(base+(ev.count-1)*stride+stride/2+len(r.pulse), end))
		}
		// Center each pulse in its sub-interval so the injected tones
		// sit in quadrature with the cycle-aligned clock pulses and
		// always add energy instead of sometimes cancelling.
		for j := 0; j < ev.count; j++ {
			r.deposit(ev.tile, base+j*stride+stride/2, end, ev.charge)
		}
	}
	r.sub = r.sub[:0]
	if r.coils != nil {
		r.fold()
	}
	r.cycle++
	return nil
}

// deposit adds a charge pulse starting at sample index start, dropping
// the samples at or past end.
func (r *Recorder) deposit(tile, start, end int, q float64) {
	end = min(end, start+len(r.pulse))
	if start >= end {
		return
	}
	w := r.currents[tile][start:end]
	for k, p := range r.pulse[:len(w)] {
		w[k] += q * p
	}
	r.wrote(tile, end)
}

// wrote records, in flux mode, that tile's block holds activity up to
// sample n.
func (r *Recorder) wrote(tile, n int) {
	if r.written != nil {
		r.written[tile] = max(r.written[tile], n)
	}
}

// grow extends tile's flux-mode block to at least n samples.
func (r *Recorder) grow(tile, n int) {
	if w := r.currents[tile]; n > len(w) {
		r.currents[tile] = append(w, make([]float64, n-len(w))...)
	}
}

// fold adds the cycle's block of every written tile into each coil's
// flux, visiting tiles in ascending order so every flux sample receives
// its tile terms in accumulateFlux's order and with its x += m*w
// expression (internal/emfield). Skipping the unwritten samples and the
// zero-weight tiles drops only terms m·(±0), which leave a sum that
// starts at +0 unchanged. The block is then cleared and the samples
// carried past the cycle move to its start.
func (r *Recorder) fold() {
	s := r.cfg.SamplesPerCycle
	base := r.cycle * s
	for tile, n := range r.written {
		if n == 0 {
			continue
		}
		w := r.currents[tile]
		blk := w[:min(n, s)]
		for k, m := range r.coils {
			if mt := m[tile]; mt != 0 {
				f := r.flux[k][base : base+len(blk)]
				for i, v := range blk {
					f[i] += mt * v
				}
			}
		}
		clear(blk)
		r.written[tile] = max(n-s, 0)
		if n > s {
			copy(w, w[s:n])
			clear(w[max(s, n-s):n])
		}
	}
}

// Currents returns the per-tile waveforms captured so far.
func (r *Recorder) Currents() [][]float64 { return r.currents }

// Flux returns a flux-mode recorder's per-coil flux waveforms, in
// FluxLane's weight order. They stay with the caller: the next Begin
// allocates new ones.
func (r *Recorder) Flux() [][]float64 { return r.flux }

// Dt returns the waveform sample spacing in seconds.
func (r *Recorder) Dt() float64 { return r.cfg.Dt() }
