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
	Array   *Array
	Det     *core.SelfReference
	Feature Feature
}

// Calibrate fits the detector from frames captured while the chip runs
// its trusted workload — the array's self-calibration, no golden chip
// involved. A nil feature selects RMSFeature.
func Calibrate(a *Array, frames []*Frame, feat Feature, cfg core.SelfReferenceConfig) (*Monitor, error) {
	if feat == nil {
		feat = RMSFeature
	}
	feats := make([][]float64, len(frames))
	for i, f := range frames {
		if len(f.Traces) != a.NumCoils() {
			return nil, fmt.Errorf("sensorarray: calibration frame %d has %d coils, array has %d", i, len(f.Traces), a.NumCoils())
		}
		feats[i] = f.Features(feat)
	}
	det, err := core.CalibrateSelfReference(feats, a.Adjacency(), cfg)
	if err != nil {
		return nil, err
	}
	return &Monitor{Array: a, Det: det, Feature: feat}, nil
}

// Evaluate scores one frame.
func (m *Monitor) Evaluate(f *Frame) (core.ArrayVerdict, error) {
	return m.Det.Evaluate(f.Features(m.Feature))
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
