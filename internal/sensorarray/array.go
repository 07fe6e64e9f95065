// Package sensorarray models the programmable on-chip EM sensor array of
// Wang et al.: an N×M grid of small nested-rectangle spiral coils tiled
// over the die on the top metal layer, read out through a bounded number
// of shared ADC channels by a mux sequencer. Each cell coil is the
// local-resolution counterpart of the paper's single whole-die spiral
// (which the 1×1 array degenerates to), so a Trojan switching under one
// cell dominates that cell's reading instead of vanishing into the
// whole-die aggregate.
//
// The package owns the geometry (couplings, cell adjacency) and
// the acquisition sequencing; the golden-model-free analysis on top of
// the per-coil frames lives in internal/core (SelfReference) and is
// glued together by Monitor in this package.
package sensorarray

import (
	"fmt"
	"sync"

	"emtrust/internal/chip"
	"emtrust/internal/emfield"
	"emtrust/internal/layout"
	"emtrust/internal/trace"
)

// Config describes one array build.
type Config struct {
	// NX, NY set the grid: NX columns by NY rows of cell coils. 1×1 is
	// the paper's single whole-die spiral.
	NX, NY int
	// Turns is the nested-rectangle turn count of each cell coil.
	Turns int
	// Z is the coil height above the switching devices (the top metal
	// layer, like the whole-die spiral).
	Z float64
	// Channels bounds how many coils the shared readout can digitize in
	// one capture window — the ADC-channel budget of the real hardware.
	// <= 0 or >= NX*NY reads the whole array in a single window.
	Channels int
	// TileLoopArea and Quad mirror chip.Config's coupling parameters so
	// array couplings share the same field model (and the process-wide
	// coupling cache) as the chip's own sensors.
	TileLoopArea float64
	Quad         int
}

// ConfigFor derives an n×n array matching a chip build's coil height and
// coupling parameters. The 1×1 array keeps the full whole-die turn
// count; larger grids halve it, since each cell coil spans a fraction of
// the die and a dense small spiral would not route on the shared metal
// layer.
func ConfigFor(cc chip.Config, n int) Config {
	turns := cc.SpiralTurns
	if n > 1 {
		turns = cc.SpiralTurns / 2
		if turns < 2 {
			turns = 2
		}
	}
	return Config{
		NX: n, NY: n,
		Turns:        turns,
		Z:            cc.SpiralZ,
		TileLoopArea: cc.TileLoopArea,
		Quad:         cc.Quad,
	}
}

// Array is one built sensor array over a specific floorplan: per-cell
// coil couplings precomputed (once per geometry, via the process-wide
// coupling cache).
type Array struct {
	Cfg  Config
	Die  layout.Point
	grid *layout.TileGrid
	// Couplings is indexed by cell k = cy*NX + cx, matching the
	// tile-grid convention (row 0 at the die bottom).
	Couplings []*emfield.Coupling

	// emfMu guards the emf slot: the per-coil emf waveforms (emfs) of
	// the last capture scanned (emfCap). A replayed capture skips the
	// per-coil synthesis of the coils already synthesized for it (see
	// windowEMFs). Synthesis is pure, so the slot cannot change results.
	emfMu  sync.Mutex
	emfCap *chip.Capture
	emfs   [][]float64
}

// New builds the array's cell coils (emfield.SpiralGrid) over the
// floorplan and precomputes their couplings. Coupling computation fans
// out over tiles through internal/parallel (inside NewCoupling) and is
// memoized process-wide, so rebuilding the same array geometry is free.
func New(fp *layout.Floorplan, cfg Config) (*Array, error) {
	if cfg.NX <= 0 || cfg.NY <= 0 {
		return nil, fmt.Errorf("sensorarray: invalid grid %dx%d", cfg.NX, cfg.NY)
	}
	if cfg.Turns < 1 {
		return nil, fmt.Errorf("sensorarray: cell coils need at least 1 turn, got %d", cfg.Turns)
	}
	a := &Array{Cfg: cfg, Die: fp.Die, grid: fp.Grid}
	for _, coil := range emfield.SpiralGrid(fp.Die, cfg.NX, cfg.NY, cfg.Turns, cfg.Z) {
		cp, err := emfield.CachedCoupling(coil, fp.Grid, cfg.TileLoopArea, cfg.Quad)
		if err != nil {
			return nil, fmt.Errorf("sensorarray: %w", err)
		}
		a.Couplings = append(a.Couplings, cp)
	}
	return a, nil
}

// NumCoils returns NX*NY.
func (a *Array) NumCoils() int { return a.Cfg.NX * a.Cfg.NY }

// CellXY decodes cell index k into grid coordinates.
func (a *Array) CellXY(k int) (cx, cy int) { return k % a.Cfg.NX, k / a.Cfg.NX }

// CellCenter returns the die position under the center of cell k.
func (a *Array) CellCenter(k int) layout.Point {
	cx, cy := a.CellXY(k)
	return layout.Point{
		X: (float64(cx) + 0.5) * a.Die.X / float64(a.Cfg.NX),
		Y: (float64(cy) + 0.5) * a.Die.Y / float64(a.Cfg.NY),
	}
}

// CellOf returns the cell index whose coil covers point p (clamped to
// the die, like layout.TileGrid.TileOf).
func (a *Array) CellOf(p layout.Point) int {
	cx := clamp(int(p.X/a.Die.X*float64(a.Cfg.NX)), a.Cfg.NX)
	cy := clamp(int(p.Y/a.Die.Y*float64(a.Cfg.NY)), a.Cfg.NY)
	return cy*a.Cfg.NX + cx
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// CellTile returns the floorplan tile under the center of cell k — the
// localization answer in tile coordinates.
func (a *Array) CellTile(k int) int { return a.grid.TileOf(a.CellCenter(k)) }

// CellTileRect returns the inclusive floorplan-tile range covered by
// cell k's coil — the footprint a localization answer actually narrows
// the die down to (one cell spans several tiles unless the array is as
// fine as the tile grid).
func (a *Array) CellTileRect(k int) (txLo, tyLo, txHi, tyHi int) {
	cx, cy := a.CellXY(k)
	txLo = cx * a.grid.NX / a.Cfg.NX
	txHi = ((cx+1)*a.grid.NX - 1) / a.Cfg.NX
	tyLo = cy * a.grid.NY / a.Cfg.NY
	tyHi = ((cy+1)*a.grid.NY - 1) / a.Cfg.NY
	return txLo, tyLo, txHi, tyHi
}

// Neighbors returns the 8-connected spatial neighbors of cell k, the
// cross-sensor reference set of the golden-model-free detector. A 1×1
// array has none (history-only referencing).
func (a *Array) Neighbors(k int) []int {
	cx, cy := a.CellXY(k)
	var out []int
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := cx+dx, cy+dy
			if nx < 0 || nx >= a.Cfg.NX || ny < 0 || ny >= a.Cfg.NY {
				continue
			}
			out = append(out, ny*a.Cfg.NX+nx)
		}
	}
	return out
}

// Adjacency returns Neighbors for every cell, in the form
// core.CalibrateSelfReference expects.
func (a *Array) Adjacency() [][]int {
	out := make([][]int, a.NumCoils())
	for k := range out {
		out[k] = a.Neighbors(k)
	}
	return out
}

// DefaultChannel returns the acquisition front end assumed for the
// array: simulation-mode white noise, lower than the whole-die sensor's
// floor because each cell coil feeds a dedicated narrowband LNA next to
// the mux instead of the long shared route to the pad.
func DefaultChannel() trace.Channel {
	return trace.SimulationChannel(2e-9)
}
