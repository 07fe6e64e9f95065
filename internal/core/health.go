package core

import (
	"fmt"
	"math"

	"emtrust/internal/dsp"
	"emtrust/internal/trace"
)

// A monitor that cannot tell "Trojan activated" from "ADC saturating"
// either floods false alarms or has its thresholds widened until Trojans
// slip through. ChannelHealth is the per-trace sanity gate in front of
// both detectors: it learns the golden channel's amplitude envelope once
// and then rejects traces no detector should be asked to judge — a
// flatlined coil, a saturating converter, a record whose energy left the
// plausible range entirely.

// HealthConfig tunes the pre-check thresholds.
type HealthConfig struct {
	// MaxClippedRatio flags saturation: more than this fraction of
	// samples pinned at the record's extreme rails. Default 0.01 — a
	// healthy noisy record touches its exact maximum once or twice; a
	// saturating converter (or a burst clipped at the rail) parks there
	// for whole runs.
	MaxClippedRatio float64
}

// Fixed pre-check thresholds.
const (
	// flatlineFraction flags a dead channel: peak-to-peak below this
	// fraction of the golden mean peak-to-peak.
	flatlineFraction = 0.02
	// rmsFactor bounds the plausible energy envelope: accept RMS within
	// [golden/rmsFactor, golden*rmsFactor].
	rmsFactor = 4
	// spikeFactor flags physically impossible samples: anything beyond
	// spikeFactor times the golden peak amplitude cannot have come from
	// the chip and must be interference in the readout chain. 1.5 is
	// generous against aging gain drift, far below any burst.
	spikeFactor = 1.5
	// maxSpikeRatio is the tolerated fraction of spike samples before
	// the trace is rejected as burst interference.
	maxSpikeRatio = 0.005
)

// DefaultHealthConfig returns the tuning used by the experiments.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{MaxClippedRatio: 0.01}
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.MaxClippedRatio <= 0 {
		c.MaxClippedRatio = 0.01
	}
	return c
}

// ChannelHealth holds the golden channel's amplitude statistics.
type ChannelHealth struct {
	cfg HealthConfig
	// GoldenRMS is the mean golden trace RMS.
	GoldenRMS float64
	// GoldenPTP is the mean golden peak-to-peak swing.
	GoldenPTP float64
	// GoldenPeak is the mean golden peak amplitude (max |sample|).
	GoldenPeak float64
}

// BuildChannelHealth fits the envelope from Trojan-free traces captured
// on the healthy channel.
func BuildChannelHealth(golden []*trace.Trace, cfg HealthConfig) (*ChannelHealth, error) {
	if len(golden) == 0 {
		return nil, fmt.Errorf("core: need golden traces for the channel health model")
	}
	h := &ChannelHealth{cfg: cfg.withDefaults()}
	for _, t := range golden {
		if len(t.Samples) == 0 {
			return nil, fmt.Errorf("core: empty golden trace")
		}
		h.GoldenRMS += dsp.RMS(t.Samples)
		lo, hi := minMax(t.Samples)
		h.GoldenPTP += hi - lo
		h.GoldenPeak += math.Max(math.Abs(lo), math.Abs(hi))
	}
	h.GoldenRMS /= float64(len(golden))
	h.GoldenPTP /= float64(len(golden))
	h.GoldenPeak /= float64(len(golden))
	if h.GoldenRMS == 0 || h.GoldenPTP == 0 {
		return nil, fmt.Errorf("core: golden traces carry no signal")
	}
	return h, nil
}

// HealthVerdict is the pre-check outcome for one trace. The zero value
// means "accepted" (or "not checked" on an unhardened monitor).
type HealthVerdict struct {
	// Rejected is set when the trace is unusable for detection.
	Rejected bool
	// Flatline is set when the record is (near-)constant.
	Flatline bool
	// Clipped is the fraction of samples pinned at the extreme rails.
	Clipped float64
	// Spikes is the fraction of samples beyond the plausible amplitude
	// (burst interference).
	Spikes float64
	// RMS is the record's root-mean-square amplitude.
	RMS float64
	// Reason names the failed check ("flatline", "clipping", "burst",
	// "rms"), empty when accepted.
	Reason string
}

// Check runs the pre-check on one trace.
func (h *ChannelHealth) Check(t *trace.Trace) HealthVerdict {
	v := HealthVerdict{}
	if len(t.Samples) == 0 {
		v.Rejected, v.Flatline, v.Reason = true, true, "flatline"
		return v
	}
	v.RMS = dsp.RMS(t.Samples)
	lo, hi := minMax(t.Samples)
	if hi-lo < flatlineFraction*h.GoldenPTP {
		v.Rejected, v.Flatline, v.Reason = true, true, "flatline"
		return v
	}
	// Saturation: a plateau of samples at the record's own extremes. A
	// healthy noisy record touches its maximum a handful of times; a
	// clipped one parks there.
	rail := math.Max(math.Abs(lo), math.Abs(hi))
	pinned := 0
	for _, s := range t.Samples {
		if math.Abs(s) >= 0.999*rail {
			pinned++
		}
	}
	v.Clipped = float64(pinned) / float64(len(t.Samples))
	if v.Clipped > h.cfg.MaxClippedRatio {
		v.Rejected, v.Reason = true, "clipping"
		return v
	}
	// Burst interference: samples the chip physically cannot emit. The
	// golden peak bounds what the die radiates; anything well past it is
	// the readout chain picking up the environment, and the detectors
	// must not be asked to vote on it.
	limit := spikeFactor * h.GoldenPeak
	spikes := 0
	for _, s := range t.Samples {
		if math.Abs(s) > limit {
			spikes++
		}
	}
	v.Spikes = float64(spikes) / float64(len(t.Samples))
	if v.Spikes > maxSpikeRatio {
		v.Rejected, v.Reason = true, "burst"
		return v
	}
	if v.RMS > h.GoldenRMS*rmsFactor || v.RMS < h.GoldenRMS/rmsFactor {
		v.Rejected, v.Reason = true, "rms"
		return v
	}
	return v
}

// Confidence maps a verdict to [0, 1]: 1 for a pristine record, falling
// as the clipped ratio and the RMS deviation approach their rejection
// thresholds, 0 for a rejected record. It is the monitor's
// degraded-confidence signal — a verdict at confidence 0.4 says "the
// channel is sick, weigh this alarm accordingly", instead of a raw
// boolean that hides the sickness.
func (h *ChannelHealth) Confidence(v HealthVerdict) float64 {
	if v.Rejected {
		return 0
	}
	c := 1.0
	c -= 0.5 * v.Clipped / h.cfg.MaxClippedRatio
	c -= 0.5 * v.Spikes / maxSpikeRatio
	if v.RMS > 0 {
		// Log-space distance to the envelope edge: 0 at golden RMS, 1 at
		// the rejection boundary.
		dev := math.Abs(math.Log(v.RMS/h.GoldenRMS)) / math.Log(rmsFactor)
		c -= 0.5 * dev
	}
	if c < 0.05 {
		c = 0.05
	}
	return c
}

func minMax(s []float64) (lo, hi float64) {
	lo, hi = s[0], s[0]
	for _, v := range s[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
