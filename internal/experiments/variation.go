package experiments

import (
	"fmt"
	"strings"

	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// VariationRow compares one fingerprinting strategy under process
// variation.
type VariationRow struct {
	Strategy string
	// FalseAlarmRate on the (Trojan-free) deployed chip.
	FalseAlarmRate float64
	// DetectionRate for an activated T2 on the deployed chip.
	DetectionRate float64
}

// VariationResult is the extension experiment motivating the paper's
// post-deployment approach: with per-cell process variation between
// chips, a fingerprint fitted on a *golden reference chip* false-alarms
// on a different (healthy) die, while the runtime framework's
// self-referenced fingerprint — fitted on the same deployed chip it
// monitors — stays clean and keeps catching Trojans.
type VariationResult struct {
	Sigma float64
	Rows  []VariationRow
}

// Variation runs the golden-chip-vs-self-reference comparison at the
// given per-cell charge sigma (defaulting to 5% when the config leaves
// variation unset).
func Variation(cfg Config) (*VariationResult, error) {
	sigma := cfg.Chip.Power.VariationSigma
	if sigma == 0 {
		sigma = 0.05
	}

	build := func(cornerSeed int64) (*chip.Chip, error) {
		chipCfg := cfg.Chip
		chipCfg.Power.VariationSigma = sigma
		chipCfg.Power.CornerSigma = sigma
		chipCfg.Power.VariationSeed = cornerSeed
		chipCfg.Seed = cornerSeed + 100
		c, err := chip.New(chipCfg)
		if err != nil {
			return nil, err
		}
		if err := c.DeactivateAll(); err != nil {
			return nil, err
		}
		c.EnableA2(false)
		return c, nil
	}
	refChip, err := build(1) // the foundry's golden reference die
	if err != nil {
		return nil, err
	}
	fieldChip, err := build(2) // the deployed die being monitored
	if err != nil {
		return nil, err
	}
	ch := sensorOnly(chip.SimulationChannels())

	collect := func(c *chip.Chip, n int) ([]*trace.Trace, error) {
		set, err := captureSet(c, cfg, ch, n, cfg.CaptureCycles)
		if err != nil {
			return nil, err
		}
		return set.Sensor.Traces, nil
	}

	refGolden, err := collect(refChip, cfg.GoldenTraces)
	if err != nil {
		return nil, err
	}
	fieldGolden, err := collect(fieldChip, cfg.GoldenTraces)
	if err != nil {
		return nil, err
	}
	refFP, err := core.BuildFingerprint(refGolden, cfg.Fingerprint)
	if err != nil {
		return nil, err
	}
	selfFP, err := core.BuildFingerprint(fieldGolden, cfg.Fingerprint)
	if err != nil {
		return nil, err
	}

	evaluate := func(fp *core.Fingerprint) (VariationRow, error) {
		clean, err := collect(fieldChip, cfg.TestTraces)
		if err != nil {
			return VariationRow{}, err
		}
		if err := fieldChip.SetTrojan(trojan.T2LeakageCurrent, true); err != nil {
			return VariationRow{}, err
		}
		infected, err := collect(fieldChip, cfg.TestTraces)
		if derr := fieldChip.SetTrojan(trojan.T2LeakageCurrent, false); derr != nil && err == nil {
			err = derr
		}
		if err != nil {
			return VariationRow{}, err
		}
		return VariationRow{
			FalseAlarmRate: alarmRate(fp, clean),
			DetectionRate:  alarmRate(fp, infected),
		}, nil
	}

	golden, err := evaluate(refFP)
	if err != nil {
		return nil, err
	}
	golden.Strategy = "golden-chip reference"
	self, err := evaluate(selfFP)
	if err != nil {
		return nil, err
	}
	self.Strategy = "self-referenced (paper)"
	return &VariationResult{Sigma: sigma, Rows: []VariationRow{golden, self}}, nil
}

// String renders the comparison.
func (r *VariationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fingerprinting under %.0f%% process variation (per-cell + corner, extension)\n", 100*r.Sigma)
	fmt.Fprintf(&sb, "%-26s %14s %14s\n", "strategy", "false alarms", "T2 detection")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-26s %13.0f%% %13.0f%%\n", row.Strategy, 100*row.FalseAlarmRate, 100*row.DetectionRate)
	}
	fmt.Fprintf(&sb, "(post-deployment self-reference avoids the golden-chip problem)\n")
	return sb.String()
}
