package core

import "fmt"

// Golden-model-free detection for sensor arrays, after Wang et al.'s
// "Programmable EM Sensor Array for Golden-Model Free Run-time Trojan
// Detection and Localization": with a grid of small coils over the die,
// no golden chip is needed, because every sensor carries two references
// of its own — its spatial neighbors at the same instant and its own
// rolling history. A Trojan activating under one coil moves that coil's
// reading away from both; a global shift (temperature, supply sag, a
// different workload phase) moves every coil together and cancels in the
// cross-sensor comparison.
//
// The detector is deliberately geometry-agnostic: it scores frames of
// per-sensor scalar features against an adjacency list, so internal/core
// stays free of coil geometry and internal/sensorarray supplies both.

// SelfReferenceConfig tunes the array detector.
type SelfReferenceConfig struct {
	// Alpha is the EWMA weight of the guarded per-sensor baseline update
	// on quiet frames (0 freezes the baseline at calibration).
	Alpha float64
}

// SelfReferenceThreshold is the robust z-score above which a sensor is
// anomalous. With the minSigma floor, a sensor must move at least
// SelfReferenceThreshold×minSigma (≈4%) relative to its neighbors before
// it is called anomalous, however quiet the calibration was.
const SelfReferenceThreshold = 8.0

// minSigma floors the per-sensor spread estimate, in relative-change
// units. Calibration frames of a steady chip differ only by acquisition
// noise, and on a nearly noise-free channel the measured spread
// collapses toward zero; without a floor any benign fluctuation would
// then score as anomalous.
const minSigma = 0.005

// DefaultSelfReferenceConfig returns the tuning used by the
// localization experiments.
func DefaultSelfReferenceConfig() SelfReferenceConfig {
	return SelfReferenceConfig{Alpha: 0.1}
}

func (c SelfReferenceConfig) withDefaults() SelfReferenceConfig {
	if c.Alpha < 0 || c.Alpha >= 1 {
		c.Alpha = 0.1
	}
	return c
}

// SelfReference is the fitted array detector. It is stateful (rolling
// baseline) and must not be shared across goroutines.
type SelfReference struct {
	cfg       SelfReferenceConfig
	neighbors [][]int
	// base is the per-sensor baseline feature (median of calibration,
	// then EWMA-tracked on quiet frames).
	base []float64
	// sigma is the per-sensor robust spread of the spatial residual over
	// the calibration frames, floored at minSigma.
	sigma []float64
	// baseFloor guards the relative-change division against dead sensors.
	baseFloor float64
}

// CalibrateSelfReference fits the detector from frames of per-sensor
// features captured while the chip is trusted-idle or running its known
// workload with nothing anomalous — the post-deployment self-calibration
// of the paper's threat model, not a golden chip. neighbors[k] lists the
// sensors spatially adjacent to sensor k; an empty list degrades sensor
// k to history-only referencing (the single-coil case).
func CalibrateSelfReference(frames [][]float64, neighbors [][]int, cfg SelfReferenceConfig) (*SelfReference, error) {
	if len(frames) < 4 {
		return nil, fmt.Errorf("core: self-reference calibration needs at least 4 frames, got %d", len(frames))
	}
	k := len(frames[0])
	if k == 0 {
		return nil, fmt.Errorf("core: self-reference frames are empty")
	}
	for i, f := range frames {
		if len(f) != k {
			return nil, fmt.Errorf("core: calibration frame %d has %d sensors, want %d", i, len(f), k)
		}
	}
	if len(neighbors) != k {
		return nil, fmt.Errorf("core: %d adjacency lists for %d sensors", len(neighbors), k)
	}
	for s, ns := range neighbors {
		for _, n := range ns {
			if n < 0 || n >= k || n == s {
				return nil, fmt.Errorf("core: sensor %d has invalid neighbor %d", s, n)
			}
		}
	}
	d := &SelfReference{cfg: cfg.withDefaults(), neighbors: neighbors}

	// Per-sensor baseline: median feature over the calibration frames.
	d.base = make([]float64, k)
	col := make([]float64, len(frames))
	for s := 0; s < k; s++ {
		for i, f := range frames {
			col[i] = f[s]
		}
		d.base[s] = median(col)
	}
	// A dead sensor's baseline is ~0; dividing by it would turn noise
	// into infinite relative change. Floor at a small fraction of the
	// array-median baseline instead.
	d.baseFloor = 1e-3 * median(d.base)
	if d.baseFloor <= 0 {
		return nil, fmt.Errorf("core: calibration features carry no signal")
	}

	// Per-sensor spread of the spatial residual across calibration
	// frames (1.4826*MAD estimates a Gaussian sigma robustly).
	resid := make([][]float64, len(frames))
	for i, f := range frames {
		resid[i] = d.residuals(f)
	}
	d.sigma = make([]float64, k)
	for s := 0; s < k; s++ {
		for i := range resid {
			col[i] = resid[i][s]
		}
		m := median(col)
		for i := range col {
			col[i] = abs(col[i] - m)
		}
		d.sigma[s] = 1.4826 * median(col)
		if d.sigma[s] < minSigma {
			d.sigma[s] = minSigma
		}
	}
	return d, nil
}

// residuals computes each sensor's spatial residual for one frame: the
// relative change against its own baseline, minus the median relative
// change of its neighbors (the common-mode reference).
func (d *SelfReference) residuals(frame []float64) []float64 {
	k := len(d.base)
	rel := make([]float64, k)
	for s := 0; s < k; s++ {
		b := d.base[s]
		if b < d.baseFloor {
			b = d.baseFloor
		}
		rel[s] = frame[s]/b - 1
	}
	out := make([]float64, k)
	var nb []float64
	for s := 0; s < k; s++ {
		out[s] = rel[s]
		if len(d.neighbors[s]) == 0 {
			continue
		}
		nb = nb[:0]
		for _, n := range d.neighbors[s] {
			nb = append(nb, rel[n])
		}
		out[s] -= median(nb)
	}
	return out
}

// ArrayVerdict is the detector's view of one frame.
type ArrayVerdict struct {
	// Z holds the per-sensor anomaly scores (robust z of the spatial
	// residual; positive means more emission than the references).
	Z []float64
	// Max and ArgMax identify the most anomalous sensor — the
	// localization answer when Alarm is set.
	Max    float64
	ArgMax int
	// Alarm is set when any sensor exceeds the threshold.
	Alarm bool
}

// Evaluate scores one frame of per-sensor features and, on quiet frames
// only, lets the rolling baseline track slow drift. Like the monitor's
// guarded re-baseliner, an alarming frame never feeds the baseline, so a
// Trojan's signature is never absorbed into its own reference.
func (d *SelfReference) Evaluate(frame []float64) (ArrayVerdict, error) {
	if len(frame) != len(d.base) {
		return ArrayVerdict{}, fmt.Errorf("core: frame has %d sensors, detector fitted for %d", len(frame), len(d.base))
	}
	r := d.residuals(frame)
	v := ArrayVerdict{Z: r}
	for s := range r {
		r[s] /= d.sigma[s]
		if r[s] > v.Max || s == 0 {
			v.Max, v.ArgMax = r[s], s
		}
	}
	v.Alarm = v.Max > SelfReferenceThreshold
	if !v.Alarm && d.cfg.Alpha > 0 {
		for s := range d.base {
			d.base[s] = (1-d.cfg.Alpha)*d.base[s] + d.cfg.Alpha*frame[s]
		}
	}
	return v, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
