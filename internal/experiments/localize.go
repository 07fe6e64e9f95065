package experiments

import (
	"fmt"
	"strings"

	"emtrust/internal/dsp"
	"emtrust/internal/layout"
	"emtrust/internal/sensorarray"
	"emtrust/internal/trojan"
)

// quadrantNames labels the cells of Localize's 2×2 spiral grid in cell
// order: south-west, south-east, north-west, north-east.
var quadrantNames = [4]string{"SW", "SE", "NW", "NE"}

// LocalizeRow is one Trojan's localization outcome.
type LocalizeRow struct {
	Trojan trojan.Kind
	// Expected is the quadrant of the Trojan's placement block.
	Expected string
	// Predicted is the quadrant whose sensor saw the largest relative
	// energy increase when the Trojan activated.
	Predicted string
	// Increase is the winning quadrant's relative RMS increase over
	// golden.
	Increase float64
	Correct  bool
}

// LocalizeResult is the extension experiment for the sensor-enhancement
// direction of the paper's future work: four quadrant spirals on the top
// metal layer (a 2×2 sensor array, read out without noise) not only
// detect an activated Trojan but point at where it sits — the "location
// awareness" the paper credits the EM side channel with.
type LocalizeResult struct {
	Rows []LocalizeRow
}

// Localize runs the quadrant-localization experiment.
func Localize(cfg Config) (*LocalizeResult, error) {
	c, err := infectedChip(cfg)
	if err != nil {
		return nil, err
	}
	fp := c.Floorplan()
	quads, err := sensorarray.New(fp, sensorarray.Config{
		NX: 2, NY: 2,
		Turns:        cfg.Chip.SpiralTurns/2 + 1,
		Z:            cfg.Chip.SpiralZ,
		TileLoopArea: cfg.Chip.TileLoopArea,
		Quad:         cfg.Chip.Quad,
	})
	if err != nil {
		return nil, err
	}

	// Per-quadrant RMS of a capture's emf. Captures here are noise-free
	// and the stimulus is fixed, so repeated captures from a steady state
	// are identical; one warm-up capture absorbs the state transient left
	// by SetTrojan, and a single measured capture replaces the old
	// average-of-repetitions.
	var emfBuf []float64
	measure := func() ([4]float64, error) {
		if _, err := c.CapturePT(cfg.Plaintext, cfg.Key, cfg.CaptureCycles); err != nil {
			return [4]float64{}, err
		}
		cap, err := c.CapturePT(cfg.Plaintext, cfg.Key, cfg.CaptureCycles)
		if err != nil {
			return [4]float64{}, err
		}
		var out [4]float64
		for q, cp := range quads.Couplings {
			emfBuf = cp.EMFInto(emfBuf, cap.Tiles, cap.Dt)
			out[q] = dsp.RMS(emfBuf)
		}
		return out, nil
	}

	golden, err := measure()
	if err != nil {
		return nil, err
	}

	res := &LocalizeResult{}
	for _, k := range trojan.Kinds() {
		if err := c.SetTrojan(k, true); err != nil {
			return nil, err
		}
		active, err := measure()
		if err != nil {
			return nil, err
		}
		if err := c.SetTrojan(k, false); err != nil {
			return nil, err
		}
		best, bestInc := 0, -1.0
		for q := range active {
			inc := active[q]/golden[q] - 1
			if inc > bestInc {
				best, bestInc = q, inc
			}
		}
		blk, ok := fp.RegionOf(k.Region())
		if !ok {
			return nil, fmt.Errorf("experiments: no block for %v", k)
		}
		expected := quads.CellOf(layout.Point{X: blk.X + blk.W/2, Y: blk.Y + blk.H/2})
		res.Rows = append(res.Rows, LocalizeRow{
			Trojan:    k,
			Expected:  quadrantNames[expected],
			Predicted: quadrantNames[best],
			Increase:  bestInc,
			Correct:   best == expected,
		})
	}
	return res, nil
}

// String renders the localization table.
func (r *LocalizeResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Trojan localization with quadrant spirals (extension)\n")
	fmt.Fprintf(&sb, "%-6s %10s %10s %10s %8s\n", "trojan", "expected", "predicted", "increase", "correct")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-6v %10s %10s %9.1f%% %8v\n",
			row.Trojan, row.Expected, row.Predicted, 100*row.Increase, row.Correct)
	}
	return sb.String()
}
