package experiments

import (
	"fmt"
	"strings"

	"emtrust/internal/chip"
	"emtrust/internal/dsp"
)

// SNRResult compares the two channels' signal-to-noise ratios against
// the paper's published values.
type SNRResult struct {
	Mode string // "simulation" (IV-B) or "measurement" (V-A)

	SensorSNRdB float64
	ProbeSNRdB  float64

	PaperSensorSNRdB float64
	PaperProbeSNRdB  float64
}

// GapdB returns the measured sensor-over-probe advantage.
func (r *SNRResult) GapdB() float64 { return r.SensorSNRdB - r.ProbeSNRdB }

// String renders the comparison.
func (r *SNRResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SNR (%s mode), Eq. (2)/(3)\n", r.Mode)
	fmt.Fprintf(&sb, "%-16s %12s %12s\n", "channel", "ours (dB)", "paper (dB)")
	fmt.Fprintf(&sb, "%-16s %12.3f %12.3f\n", "on-chip sensor", r.SensorSNRdB, r.PaperSensorSNRdB)
	fmt.Fprintf(&sb, "%-16s %12.3f %12.3f\n", "external probe", r.ProbeSNRdB, r.PaperProbeSNRdB)
	fmt.Fprintf(&sb, "sensor advantage: %.2f dB (paper: %.2f dB)\n",
		r.GapdB(), r.PaperSensorSNRdB-r.PaperProbeSNRdB)
	return sb.String()
}

// snr runs the two-step protocol of Section V-A on the given channels:
// first the chip idles (noise records), then it encrypts back-to-back
// (signal records); the SNR is the RMS ratio per Eqs. (2) and (3).
func snr(cfg Config, ch chip.Channels, mode string) (*SNRResult, error) {
	chipCfg := cfg.Chip
	chipCfg.WithTrojans = false
	chipCfg.WithA2 = false
	c, err := chip.New(chipCfg)
	if err != nil {
		return nil, err
	}
	records := cfg.TestTraces / 4
	if records < 4 {
		records = 4
	}
	idle, err := idleTraces(c, ch, records, 16)
	if err != nil {
		return nil, err
	}
	signal, err := captureRandomSet(c, cfg.Key, ch, randomLanes(c, records), 16)
	if err != nil {
		return nil, err
	}
	var signalS, signalP, noiseS, noiseP []float64
	for i := 0; i < records; i++ {
		noiseS = append(noiseS, idle.Sensor.Traces[i].Samples...)
		noiseP = append(noiseP, idle.Probe.Traces[i].Samples...)
		signalS = append(signalS, signal.Sensor.Traces[i].Samples...)
		signalP = append(signalP, signal.Probe.Traces[i].Samples...)
	}
	return &SNRResult{
		Mode:        mode,
		SensorSNRdB: dsp.SNRdB(signalS, noiseS),
		ProbeSNRdB:  dsp.SNRdB(signalP, noiseP),
	}, nil
}

// SNRSimulation reproduces Section IV-B: simulated radiation with white
// environment noise. Paper: on-chip 29.976 dB, external 17.483 dB.
func SNRSimulation(cfg Config) (*SNRResult, error) {
	r, err := snr(cfg, chip.SimulationChannels(), "simulation")
	if err != nil {
		return nil, err
	}
	r.PaperSensorSNRdB = 29.976
	r.PaperProbeSNRdB = 17.483
	return r, nil
}

// SNRMeasured reproduces Section V-A: the fabricated chip measured
// through the oscilloscope, with lab interference degrading the external
// probe. Paper: on-chip 30.5489 dB, external 13.8684 dB.
func SNRMeasured(cfg Config) (*SNRResult, error) {
	r, err := snr(cfg, chip.MeasurementChannels(), "measurement")
	if err != nil {
		return nil, err
	}
	r.PaperSensorSNRdB = 30.5489
	r.PaperProbeSNRdB = 13.8684
	return r, nil
}
