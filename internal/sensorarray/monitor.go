package sensorarray

import (
	"fmt"
	"strings"

	"emtrust/internal/core"
)

// Monitor couples an Array to the golden-model-free self-referencing
// detector: frames in, per-cell anomaly scores and a localization answer
// out. The geometry (which cells are neighbors, where a cell sits on the
// die) stays here; the statistics stay in internal/core.
type Monitor struct {
	Array *Array
	Det   *core.SelfReference
}

// Calibrate self-calibrates the array on the chip running its trusted
// workload, no golden chip involved: it discards one scan (the warm-up,
// which absorbs the cold-start transient), then fits the detector on
// each coil's RMS (Frame.RMS) over the next n scans.
func Calibrate(a *Array, n int, scan func() (*Frame, error)) (*Monitor, error) {
	if _, err := scan(); err != nil {
		return nil, fmt.Errorf("sensorarray: warm-up scan: %w", err)
	}
	feats := make([][]float64, n)
	for i := range feats {
		f, err := scan()
		if err != nil {
			return nil, fmt.Errorf("sensorarray: calibration scan %d: %w", i, err)
		}
		if len(f.Traces) != a.NumCoils() {
			return nil, fmt.Errorf("sensorarray: calibration frame %d has %d coils, array has %d", i, len(f.Traces), a.NumCoils())
		}
		feats[i] = f.RMS()
	}
	det, err := core.CalibrateSelfReference(feats, a.Adjacency())
	if err != nil {
		return nil, err
	}
	return &Monitor{Array: a, Det: det}, nil
}

// Evaluate scores one frame.
func (m *Monitor) Evaluate(f *Frame) (core.ArrayVerdict, error) {
	return m.Det.Evaluate(f.RMS())
}

// HeatmapString renders per-cell scores as a coarse ASCII die map (row
// NY-1 on top, matching die orientation), with the hottest cell marked.
// Useful for trustmon's terminal output; the HTML report draws the same
// data as an SVG heatmap.
func (m *Monitor) HeatmapString(z []float64) string {
	a := m.Array
	hot := 0
	for k := range z {
		if z[k] > z[hot] {
			hot = k
		}
	}
	var sb strings.Builder
	for cy := a.Cfg.NY - 1; cy >= 0; cy-- {
		for cx := 0; cx < a.Cfg.NX; cx++ {
			k := cy*a.Cfg.NX + cx
			mark := " "
			if k == hot && z[k] > core.SelfReferenceThreshold {
				mark = "*"
			}
			fmt.Fprintf(&sb, "%6.1f%s", z[k], mark)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
