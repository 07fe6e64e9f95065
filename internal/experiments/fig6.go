package experiments

import (
	"fmt"
	"strings"

	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/dsp"
	"emtrust/internal/stats"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// HistPanel is one panel of Figure 6(a)-(h): golden (red) and
// Trojan-activated (blue) Euclidean-distance histograms on one channel.
type HistPanel struct {
	Trojan trojan.Kind
	Golden *stats.Histogram
	Active *stats.Histogram
	// Overlap in [0,1]: 1 = indistinguishable populations.
	Overlap float64
	// PeakSeparation in bin widths: >= 1 means the distribution peaks
	// land in different bins, the paper's "shifting of the
	// distributions' peaks" criterion.
	PeakSeparation float64
	// DetectionRate is the Eq. (1) alarm rate over the active traces.
	DetectionRate float64
	// TStat is Welch's t between the golden and active distance
	// populations (the TVLA statistic); |t| > 4.5 is the conventional
	// leakage-detection criterion.
	TStat float64
}

// HistogramsResult is one row of Figure 6: four panels on one channel.
type HistogramsResult struct {
	Channel string // "external probe" (a-d) or "on-chip sensor" (e-h)
	Panels  []HistPanel
}

// Fig6Histograms reproduces Figure 6(a)-(d) (useSensor=false: external
// probe) or 6(e)-(h) (useSensor=true: on-chip sensor): measurement-mode
// Euclidean-distance histograms for the golden circuit and each
// activated Trojan.
func Fig6Histograms(cfg Config, useSensor bool) (*HistogramsResult, error) {
	c, err := infectedChip(cfg)
	if err != nil {
		return nil, err
	}
	// The probe's noise follows the sensor's in each trace's stream, so
	// the probe panels acquire both channels.
	ch := chip.MeasurementChannels()
	if useSensor {
		ch = sensorOnly(ch)
	}
	pick := func(d *dualSet) []*trace.Trace {
		if useSensor {
			return d.Sensor.Traces
		}
		return d.Probe.Traces
	}

	goldenFit, err := captureSet(c, cfg, ch, cfg.GoldenTraces, cfg.CaptureCycles)
	if err != nil {
		return nil, err
	}
	fp, err := core.BuildFingerprint(pick(goldenFit), cfg.Fingerprint)
	if err != nil {
		return nil, err
	}
	goldenHeld, err := captureSet(c, cfg, ch, cfg.TestTraces, cfg.CaptureCycles)
	if err != nil {
		return nil, err
	}
	goldenDists := centroidDistances(fp, pick(goldenHeld))

	// One histogram range shared by every panel, like the paper's
	// common x-axis.
	type pop struct {
		kind  trojan.Kind
		dists []float64
		rate  float64
		tstat float64
	}
	var pops []pop
	maxDist := maxOf(goldenDists)
	for _, k := range trojan.Kinds() {
		set, err := withTrojan(c, cfg, ch, k, cfg.TestTraces, cfg.CaptureCycles)
		if err != nil {
			return nil, err
		}
		traces := pick(set)
		dists := centroidDistances(fp, traces)
		tstat, _ := stats.WelchT(dists, goldenDists)
		pops = append(pops, pop{kind: k, dists: dists, rate: alarmRate(fp, traces), tstat: tstat})
		if m := maxOf(dists); m > maxDist {
			maxDist = m
		}
	}

	name := "external probe"
	if useSensor {
		name = "on-chip sensor"
	}
	res := &HistogramsResult{Channel: name}
	for _, p := range pops {
		g := stats.NewHistogram(0, maxDist*1.05, cfg.HistBins)
		g.AddAll(goldenDists)
		a := stats.NewHistogram(0, maxDist*1.05, cfg.HistBins)
		a.AddAll(p.dists)
		res.Panels = append(res.Panels, HistPanel{
			Trojan:         p.kind,
			Golden:         g,
			Active:         a,
			Overlap:        g.Overlap(a),
			PeakSeparation: g.PeakSeparation(a),
			DetectionRate:  p.rate,
			TStat:          p.tstat,
		})
	}
	return res, nil
}

func centroidDistances(fp *core.Fingerprint, traces []*trace.Trace) []float64 {
	out := make([]float64, len(traces))
	for i, t := range traces {
		out[i] = fp.CentroidDistance(t)
	}
	return out
}

func maxOf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// String renders the four panels with overlap metrics and ASCII
// histograms.
func (r *HistogramsResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6 histograms, %s (measurement mode)\n", r.Channel)
	fmt.Fprintf(&sb, "%-6s %10s %10s %10s %10s\n", "trojan", "overlap", "peak-sep", "detect%", "TVLA-t")
	for _, p := range r.Panels {
		fmt.Fprintf(&sb, "%-6s %10.3f %10.2f %9.0f%% %10.1f\n", p.Trojan, p.Overlap, p.PeakSeparation, 100*p.DetectionRate, p.TStat)
	}
	return sb.String()
}

// SpectrumPanel is one panel of Figure 6(i)-(l): the sensor spectrum of
// one activated Trojan against the golden envelope.
type SpectrumPanel struct {
	Trojan trojan.Kind
	// Spots flagged by the Section III-E detector.
	Spots int
	// Detected is the spectral alarm.
	Detected bool
	// LowBandExcess is the added spectral energy below half the clock
	// (T1's 750 kHz AM carrier lives here).
	LowBandExcess float64
	// ClockBandExcess is the added energy at the clock fundamental and
	// harmonic spots (T2/T4's extra registers raise these).
	ClockBandExcess float64
	// StrongestHz is the frequency of the strongest offending spot.
	StrongestHz float64
}

// SpectraResult is the bottom row of Figure 6.
type SpectraResult struct {
	Panels []SpectrumPanel
}

// Fig6Spectra reproduces Figure 6(i)-(l): FFT of the on-chip sensor data
// with each Trojan activated, compared against the golden circuit's
// spectrum.
func Fig6Spectra(cfg Config) (*SpectraResult, error) {
	set, nGolden, err := fig6SpectraSet(cfg)
	if err != nil {
		return nil, err
	}
	golden := set.Sensor.Traces[:nGolden]
	sd, err := core.BuildSpectralDetector(golden, cfg.Spectral)
	if err != nil {
		return nil, err
	}
	goldenSpec := averageSpectrum(golden, cfg.Spectral.Window)
	clock := cfg.Chip.Power.ClockHz

	res := &SpectraResult{}
	// One reused amplitude buffer serves every per-Trojan spectrum; the
	// Spectrum header is rebuilt around it each iteration and fully
	// consumed before the next overwrites it.
	var amp []float64
	for i, k := range trojan.Kinds() {
		s := set.Sensor.Traces[nGolden+i]
		p := dsp.PlanForLength(len(s.Samples))
		amp = p.SpectrumInto(amp, s.Samples, cfg.Spectral.Window)
		spec := &dsp.Spectrum{Amplitude: amp, DF: 1 / (float64(p.Size()) * s.Dt), N: p.Size()}
		v := sd.Evaluate(s)
		panel := SpectrumPanel{
			Trojan:          k,
			Spots:           len(v.Spots),
			Detected:        v.Alarm,
			LowBandExcess:   spec.BandEnergy(clock/32, clock/2) - goldenSpec.BandEnergy(clock/32, clock/2),
			ClockBandExcess: bandAround(spec, clock) + bandAround(spec, 2*clock) - bandAround(goldenSpec, clock) - bandAround(goldenSpec, 2*clock),
		}
		if v.Alarm {
			panel.StrongestHz = v.StrongestSpot().Frequency
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// fig6SpectraSet captures Figure 6(i)-(l)'s traces as one random-
// plaintext lane set: nGolden lanes from the dormant chip, then one lane
// per Trojan, in trojan.Kinds() order, from the chip with only that
// Trojan active. Each start is a clone taken while the chip holds that
// state; seed streams are reserved golden first, then T1-T4.
func fig6SpectraSet(cfg Config) (set *dualSet, nGolden int, err error) {
	c, err := infectedChip(cfg)
	if err != nil {
		return nil, 0, err
	}
	nGolden = cfg.GoldenTraces/8 + 4
	lanes := randomLanes(c.Clone(), nGolden)
	for _, k := range trojan.Kinds() {
		if err := c.SetTrojan(k, true); err != nil {
			return nil, 0, err
		}
		on := c.Clone()
		if err := c.SetTrojan(k, false); err != nil {
			return nil, 0, err
		}
		lanes = append(lanes, randomLanes(on, 1)...)
	}
	set, err = captureRandomSet(c, cfg.Key, sensorOnly(chip.SimulationChannels()), lanes, cfg.SpectralCycles)
	return set, nGolden, err
}

func bandAround(s *dsp.Spectrum, f float64) float64 {
	return s.BandEnergy(f-4*s.DF, f+4*s.DF)
}

// averageSpectrum is the linear per-bin amplitude mean over the traces
// (an amplitude average, not a power average — the paper's Figure 6
// envelope convention). One planned scratch buffer serves every trace.
func averageSpectrum(traces []*trace.Trace, w dsp.Window) *dsp.Spectrum {
	var avg *dsp.Spectrum
	var amp []float64
	for _, t := range traces {
		p := dsp.PlanForLength(len(t.Samples))
		amp = p.SpectrumInto(amp, t.Samples, w)
		if avg == nil {
			avg = &dsp.Spectrum{
				Amplitude: append([]float64(nil), amp...),
				DF:        1 / (float64(p.Size()) * t.Dt),
				N:         p.Size(),
			}
			continue
		}
		dsp.Add(avg.Amplitude, amp)
	}
	for i := range avg.Amplitude {
		avg.Amplitude[i] /= float64(len(traces))
	}
	return avg
}

// String renders the spectrum panels.
func (r *SpectraResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6 sensor spectra (i)-(l)\n")
	fmt.Fprintf(&sb, "%-6s %8s %8s %14s %14s %12s\n", "trojan", "alarm", "spots", "low-band dE", "clock-band dE", "strongest Hz")
	for _, p := range r.Panels {
		fmt.Fprintf(&sb, "%-6s %8v %8d %14.4g %14.4g %12.4g\n",
			p.Trojan, p.Detected, p.Spots, p.LowBandExcess, p.ClockBandExcess, p.StrongestHz)
	}
	return sb.String()
}
