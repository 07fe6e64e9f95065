package experiments

import (
	"fmt"
	"math"
	"strings"

	"emtrust/internal/core"
	"emtrust/internal/layout"
	"emtrust/internal/sensorarray"
	"emtrust/internal/trojan"
)

// Localization is the sensor-array extension experiment: replace the
// paper's single whole-die spiral with a programmable N×N array of small
// coils and ask three questions the single coil cannot answer —
// (a) can Trojans be detected *without a golden model*, from cross-sensor
// self-referencing alone, (b) can the firing Trojan be *located* on the
// die, scored against the true placement block, and (c) how does a
// bounded ADC-channel budget (the mux sequencer of the real hardware)
// trade frame latency against coverage.

// Frame counts for the sweep. Calibration frames fit the self-reference
// baseline; eval frames score each threat. The budget sweep re-runs the
// 4×4 grid with fewer frames since each frame costs Windows captures.
const (
	locCalFrames   = 8
	locEvalFrames  = 6
	locBudgetCal   = 6
	locBudgetEval  = 4
	locDetectFrac  = 0.5
	locAdjacentMax = 1 // tiles: correct or adjacent counts as localized
)

// LocalizationThreat is one threat's outcome on one array.
type LocalizationThreat struct {
	Name string
	// Detected is the fraction of eval frames that alarmed.
	Detected float64
	// PredCell is the array cell with the highest mean anomaly score;
	// TrueCell is the cell covering the threat's placement block center.
	PredCell, TrueCell int
	// TileDist is the Chebyshev distance, in floorplan tiles, from the
	// true block's center tile to the nearest tile of the predicted
	// cell's footprint (0 when the cell covers the truth).
	TileDist int
	// DistUM is the Euclidean distance from the predicted cell center to
	// the true block center, in micrometers — the precision measure that
	// keeps shrinking as the array gets finer.
	DistUM float64
	// Localized: detected on most frames AND the predicted cell covers
	// the true tile or an adjacent one. A 1×1 array never localizes: its
	// only possible answer is the entire die, which narrows nothing.
	Localized bool
	// MeanZ is the winning cell's mean anomaly score.
	MeanZ float64
	// Heat holds the per-cell mean anomaly scores (the die heatmap).
	Heat []float64
}

// LocalizationGrid is one array size (or one channel budget) of the sweep.
type LocalizationGrid struct {
	NX, NY int
	// Channels is the effective ADC-channel budget; Windows the capture
	// windows one frame costs under it (the frame latency).
	Channels, Windows int
	Threats           []LocalizationThreat
	// Detected and Localized count threats (out of len(Threats)).
	Detected, Localized int
}

// LocalizationResult is the full sweep.
type LocalizationResult struct {
	// Grids sweeps array sizes at an unconstrained channel budget;
	// Budget re-runs the 4×4 grid under shrinking ADC budgets.
	Grids     []LocalizationGrid
	Budget    []LocalizationGrid
	Threshold float64
}

// Localization runs the sweep on the infected chip: array sizes
// 1×1 (the paper's whole-die coil) through 8×8, then the channel-budget
// tradeoff at 4×4.
func Localization(cfg Config) (*LocalizationResult, error) {
	res := &LocalizationResult{Threshold: core.SelfReferenceThreshold}
	for _, n := range []int{1, 2, 4, 8} {
		g, err := localizeGrid(cfg, n, 0, locCalFrames, locEvalFrames)
		if err != nil {
			return nil, fmt.Errorf("experiments: %dx%d array: %w", n, n, err)
		}
		res.Grids = append(res.Grids, g)
	}
	for _, chn := range []int{4, 1} {
		g, err := localizeGrid(cfg, 4, chn, locBudgetCal, locBudgetEval)
		if err != nil {
			return nil, fmt.Errorf("experiments: 4x4 array, %d channels: %w", chn, err)
		}
		res.Budget = append(res.Budget, g)
	}
	return res, nil
}

// localizeGrid runs one array configuration against every threat on a
// fresh infected chip. Nothing golden is consulted: the detector
// calibrates on the deployed (infected, dormant) chip itself.
func localizeGrid(cfg Config, n, channels, calFrames, evalFrames int) (LocalizationGrid, error) {
	g := LocalizationGrid{NX: n, NY: n}
	c, err := infectedChip(cfg)
	if err != nil {
		return g, err
	}
	fp := c.Floorplan()
	acfg := sensorarray.ConfigFor(cfg.Chip, n)
	acfg.Channels = channels
	arr, err := sensorarray.New(fp, acfg)
	if err != nil {
		return g, err
	}
	g.Windows = arr.Windows()
	g.Channels = channels
	if channels <= 0 || channels > arr.NumCoils() {
		g.Channels = arr.NumCoils()
	}

	ch := sensorarray.DefaultChannel()
	scan := func() (*sensorarray.Frame, error) {
		return arr.ScanEncryption(c, ch, cfg.Plaintext, cfg.Key, cfg.CaptureCycles)
	}

	// Self-calibration on the deployed chip running its known workload,
	// everything dormant; one warm-up frame absorbs the cold-start
	// transient.
	if _, err := scan(); err != nil {
		return g, err
	}
	frames := make([]*sensorarray.Frame, calFrames)
	for i := range frames {
		if frames[i], err = scan(); err != nil {
			return g, err
		}
	}
	mon, err := sensorarray.Calibrate(arr, frames, nil, core.DefaultSelfReferenceConfig())
	if err != nil {
		return g, err
	}

	evalThreat := func(name, region string, activate, deactivate func() error) error {
		if err := activate(); err != nil {
			return err
		}
		if _, err := scan(); err != nil { // warm-up, absorbs the trigger transient
			return err
		}
		heat := make([]float64, arr.NumCoils())
		alarms := 0
		for i := 0; i < evalFrames; i++ {
			f, err := scan()
			if err != nil {
				return err
			}
			v, err := mon.Evaluate(f)
			if err != nil {
				return err
			}
			if v.Alarm {
				alarms++
			}
			for k := range heat {
				heat[k] += v.Z[k] / float64(evalFrames)
			}
		}
		if err := deactivate(); err != nil {
			return err
		}
		if _, err := scan(); err != nil { // settle back before the next threat
			return err
		}
		pred := 0
		for k := range heat {
			if heat[k] > heat[pred] {
				pred = k
			}
		}
		blk, ok := fp.RegionOf(region)
		if !ok {
			return fmt.Errorf("no placement block for region %q", region)
		}
		center := layout.Point{X: blk.X + blk.W/2, Y: blk.Y + blk.H/2}
		dist := tileToRect(fp.Grid, fp.Grid.TileOf(center), arr, pred)
		pc := arr.CellCenter(pred)
		detected := float64(alarms) / float64(evalFrames)
		t := LocalizationThreat{
			Name:      name,
			Detected:  detected,
			PredCell:  pred,
			TrueCell:  arr.CellOf(center),
			TileDist:  dist,
			DistUM:    1e6 * math.Hypot(pc.X-center.X, pc.Y-center.Y),
			Localized: detected >= locDetectFrac && dist <= locAdjacentMax && arr.NumCoils() > 1,
			MeanZ:     heat[pred],
			Heat:      heat,
		}
		if t.Detected >= locDetectFrac {
			g.Detected++
		}
		if t.Localized {
			g.Localized++
		}
		g.Threats = append(g.Threats, t)
		return nil
	}

	for _, k := range trojan.Kinds() {
		k := k
		err := evalThreat(k.String(), k.Region(),
			func() error { return c.SetTrojan(k, true) },
			func() error { return c.SetTrojan(k, false) })
		if err != nil {
			return g, fmt.Errorf("%v: %w", k, err)
		}
	}
	// A2: arm the analog Trojan and let the clock-division wire charge
	// its pump during an idle window; it must be firing before the eval
	// frames score it.
	err = evalThreat("A2", "clkdiv",
		func() error {
			c.EnableA2(true)
			if _, err := c.CaptureIdle(cfg.SpectralCycles); err != nil {
				return err
			}
			if !c.A2().Firing() {
				return fmt.Errorf("A2 pump did not charge in %d idle cycles", cfg.SpectralCycles)
			}
			return nil
		},
		func() error { c.EnableA2(false); return nil })
	if err != nil {
		return g, fmt.Errorf("A2: %w", err)
	}
	return g, nil
}

// tileToRect returns the Chebyshev distance, in tiles, from tile t to
// the tile footprint of array cell k (0 when the footprint covers t).
func tileToRect(g *layout.TileGrid, t int, arr *sensorarray.Array, k int) int {
	tx, ty := t%g.NX, t/g.NX
	txLo, tyLo, txHi, tyHi := arr.CellTileRect(k)
	dx := max(txLo-tx, tx-txHi, 0)
	dy := max(tyLo-ty, ty-tyHi, 0)
	return max(dx, dy)
}

// Grid returns the sweep entry with the given side length, or nil.
func (r *LocalizationResult) Grid(n int) *LocalizationGrid {
	for i := range r.Grids {
		if r.Grids[i].NX == n {
			return &r.Grids[i]
		}
	}
	return nil
}

// String renders the sweep tables.
func (r *LocalizationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Golden-model-free detection and localization with the sensor array (extension)\n")
	fmt.Fprintf(&sb, "detected: alarmed on >= %.0f%% of frames; localized: detected and within %d tile of truth; threshold z > %.1f\n",
		100*locDetectFrac, locAdjacentMax, r.Threshold)
	fmt.Fprintf(&sb, "%-16s %8s %9s %10s\n", "array", "windows", "detected", "localized")
	for _, g := range r.Grids {
		name := fmt.Sprintf("%dx%d", g.NX, g.NY)
		if g.NX == 1 {
			name += " (whole-die)"
		}
		fmt.Fprintf(&sb, "%-16s %8d %6d/%d %7d/%d\n",
			name, g.Windows, g.Detected, len(g.Threats), g.Localized, len(g.Threats))
	}
	if g := r.Grid(4); g != nil {
		fmt.Fprintf(&sb, "\n4x4 per-threat detail\n")
		fmt.Fprintf(&sb, "%-6s %9s %10s %10s %9s %10s %8s\n", "threat", "detected", "pred cell", "tile dist", "dist um", "localized", "mean z")
		for _, t := range g.Threats {
			cx, cy := t.PredCell%g.NX, t.PredCell/g.NX
			fmt.Fprintf(&sb, "%-6s %8.0f%% %10s %10d %9.0f %10v %8.1f\n",
				t.Name, 100*t.Detected, fmt.Sprintf("(%d,%d)", cx, cy), t.TileDist, t.DistUM, t.Localized, t.MeanZ)
		}
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(&sb, "\nADC channel budget at 4x4 (16 coils)\n")
		fmt.Fprintf(&sb, "%-9s %14s %9s %10s\n", "channels", "windows/frame", "detected", "localized")
		for _, g := range r.Budget {
			fmt.Fprintf(&sb, "%-9d %14d %6d/%d %7d/%d\n",
				g.Channels, g.Windows, g.Detected, len(g.Threats), g.Localized, len(g.Threats))
		}
	}
	return sb.String()
}
