package experiments

import (
	"fmt"
	"strings"

	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// RobustnessPoint is one noise level of the degradation sweep.
type RobustnessPoint struct {
	// NoiseScale multiplies the calibrated sensor noise floor.
	NoiseScale float64
	// FalseAlarmRate on golden traces (fingerprint refitted per level).
	FalseAlarmRate float64
	// Detection rates per Trojan at this noise level.
	Detection map[trojan.Kind]float64
}

// RobustnessResult sweeps the environment noise to find where each
// Trojan's detectability collapses — the failure-injection counterpart
// of the paper's fixed-noise evaluation, and a deployment guide for how
// much shielding the analysis module needs.
type RobustnessResult struct {
	BaseNoiseRMS float64
	Points       []RobustnessPoint
}

// Robustness runs the sweep at 0.5x, 1x, 2x and 4x the calibrated noise.
func Robustness(cfg Config) (*RobustnessResult, error) {
	c, err := infectedChip(cfg)
	if err != nil {
		return nil, err
	}
	base := chip.SimulationChannels().Sensor.(trace.Acquisition).NoiseRMS
	res := &RobustnessResult{BaseNoiseRMS: base}
	for _, scale := range []float64{0.5, 1, 2, 4} {
		ch := chip.Channels{Sensor: trace.SimulationChannel(base * scale)}
		golden, err := captureSet(c, cfg, ch, cfg.GoldenTraces, cfg.CaptureCycles)
		if err != nil {
			return nil, err
		}
		fp, err := core.BuildFingerprint(golden.Sensor.Traces, cfg.Fingerprint)
		if err != nil {
			return nil, err
		}
		point := RobustnessPoint{NoiseScale: scale, Detection: make(map[trojan.Kind]float64)}

		held, err := captureSet(c, cfg, ch, cfg.TestTraces, cfg.CaptureCycles)
		if err != nil {
			return nil, err
		}
		point.FalseAlarmRate = alarmRate(fp, held.Sensor.Traces)

		for _, k := range trojan.Kinds() {
			set, err := withTrojan(c, cfg, ch, k, cfg.TestTraces, cfg.CaptureCycles)
			if err != nil {
				return nil, err
			}
			point.Detection[k] = alarmRate(fp, set.Sensor.Traces)
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// String renders the degradation table.
func (r *RobustnessResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Detection vs environment noise (failure injection, extension)\n")
	fmt.Fprintf(&sb, "%-8s %10s %8s %8s %8s %8s\n", "noise", "false+", "T1", "T2", "T3", "T4")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%6.1fx %9.0f%% %7.0f%% %7.0f%% %7.0f%% %7.0f%%\n",
			p.NoiseScale, 100*p.FalseAlarmRate,
			100*p.Detection[trojan.T1AMLeaker], 100*p.Detection[trojan.T2LeakageCurrent],
			100*p.Detection[trojan.T3CDMALeaker], 100*p.Detection[trojan.T4PowerHog])
	}
	fmt.Fprintf(&sb, "(the Eq. (1) threshold adapts to the refitted golden spread, trading\n detection for false-alarm control as noise grows)\n")
	return sb.String()
}
