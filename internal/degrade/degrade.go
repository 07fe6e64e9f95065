// Package degrade injects measurement-chain faults between the coil and
// the data-analysis module. A deployed sensor does not stay healthy for
// the life of the device: its ADC saturates, samples drop or stick, the
// front end picks up burst interference, gain and offset drift with
// aging and temperature, the sample clock jitters, and in the worst case
// the coil breaks or is tampered flat. Each of those failure modes is a
// composable Stage; a Channel wraps any trace.Channel with a stage list,
// so every experiment can acquire through an injected-fault chain and
// the runtime monitor can be graded on telling "Trojan activated" from
// "sensor dying".
//
// Determinism contract: stages draw all randomness from the per-capture
// *frand.Rand handed to Acquire (chip.SplitRand's, or the fleet's per
// draw site), and drift-like stages depend only on the explicit trace
// index, so a degraded stream is bit-identical for a given seed.
package degrade

import (
	"math"
	"sync/atomic"

	"emtrust/internal/trace"
)

// Env carries per-acquisition context into a stage: the sample spacing,
// the trace's index along the deployment timeline (drift accrues with
// it), and the capture's private random generator.
type Env struct {
	Dt    float64
	Index int
	Rng   trace.Rand
	// scratch, when non-nil, points at a channel-owned reusable buffer
	// stages may borrow via scratchBuf instead of allocating. Only the
	// Into acquisition path wires it; a zero Env keeps every stage
	// allocation-free of shared state and safe to use concurrently.
	scratch *[]float64
}

// scratchBuf returns a length-n scratch slice for a stage's private
// use within one Apply call, reusing the channel-owned buffer when the
// Env carries one.
func (e Env) scratchBuf(n int) []float64 {
	if e.scratch == nil {
		return make([]float64, n)
	}
	buf := *e.scratch
	if cap(buf) < n {
		buf = make([]float64, n)
		*e.scratch = buf
	}
	return buf[:n]
}

// Stage mutates one acquired trace in place.
type Stage interface {
	// Name identifies the stage in logs and reports.
	Name() string
	// Apply degrades the samples in place.
	Apply(samples []float64, env Env)
}

// Identity is the no-op inner channel: it copies the input waveform
// verbatim. Wrapping it turns a stage list into a pure re-measurement
// chain, which lets experiments replay an already-acquired trace set
// through a fault profile without touching the originals.
type Identity struct{}

// Acquire copies the waveform into a fresh trace.
func (Identity) Acquire(clean []float64, dt float64, _ trace.Rand) *trace.Trace {
	s := make([]float64, len(clean))
	copy(s, clean)
	return &trace.Trace{Dt: dt, Samples: s}
}

// AcquireScaledInto implements trace.ScaledAcquirer: the waveform times
// scale, written into dst's reused buffer.
func (Identity) AcquireScaledInto(dst *trace.Trace, clean []float64, scale, dt float64, _ trace.Rand) *trace.Trace {
	s := dst.Samples
	if cap(s) < len(clean) {
		s = make([]float64, len(clean))
	} else {
		s = s[:len(clean)]
	}
	for i, v := range clean {
		s[i] = v * scale
	}
	dst.Dt = dt
	dst.Samples = s
	return dst
}

// Channel wraps an inner acquisition channel with degradation stages,
// applied in order after the healthy acquisition (the faults live in the
// readout chain, downstream of the physics).
type Channel struct {
	Inner  trace.Channel
	Stages []Stage
	next   atomic.Int64
	// stageScratch and scaleScratch back the allocation-free
	// AcquireAtInto path; they make that method (and only it) unsafe
	// for concurrent use.
	stageScratch []float64
	scaleScratch []float64
}

// Wrap builds a degraded channel over inner.
func Wrap(inner trace.Channel, stages ...Stage) *Channel {
	return &Channel{Inner: inner, Stages: stages}
}

// Acquire implements trace.Channel, advancing an internal timeline
// index per call. The internal index makes this order-sensitive: loops
// that may be reordered or parallelized must use AcquireAt with an
// explicit index instead.
func (c *Channel) Acquire(clean []float64, dt float64, rng trace.Rand) *trace.Trace {
	return c.AcquireAt(int(c.next.Add(1)-1), clean, dt, rng)
}

// AcquireAt acquires through the inner channel and applies every stage
// with the given timeline index. Deterministic for a given (index, rng).
func (c *Channel) AcquireAt(index int, clean []float64, dt float64, rng trace.Rand) *trace.Trace {
	t := c.Inner.Acquire(clean, dt, rng)
	env := Env{Dt: dt, Index: index, Rng: rng}
	for _, s := range c.Stages {
		s.Apply(t.Samples, env)
	}
	return t
}

// AcquireAtInto is AcquireAt writing into dst (reusing dst's sample
// buffer) with the clean waveform pre-multiplied by scale, and with
// the channel's internal scratch lent to the stages. Bit-identical to
// scaling the waveform yourself and calling AcquireAt, but with zero
// steady-state allocations when the inner channel implements
// trace.ScaledAcquirer. NOT safe for concurrent use on one Channel —
// the scratch buffers are channel-owned; concurrent acquirers must
// keep using AcquireAt.
func (c *Channel) AcquireAtInto(index int, dst *trace.Trace, clean []float64, scale, dt float64, rng trace.Rand) *trace.Trace {
	if sa, ok := c.Inner.(trace.ScaledAcquirer); ok {
		dst = sa.AcquireScaledInto(dst, clean, scale, dt, rng)
	} else {
		if scale != 1 {
			if cap(c.scaleScratch) < len(clean) {
				c.scaleScratch = make([]float64, len(clean))
			}
			buf := c.scaleScratch[:len(clean)]
			for i, v := range clean {
				buf[i] = v * scale
			}
			clean = buf
		}
		*dst = *c.Inner.Acquire(clean, dt, rng)
	}
	env := Env{Dt: dt, Index: index, Rng: rng, scratch: &c.stageScratch}
	for _, s := range c.Stages {
		s.Apply(dst.Samples, env)
	}
	return dst
}

// Clip saturates the record at the ADC rails ±Rail, the signature of a
// front-end gain that drifted past the converter's full scale.
type Clip struct {
	Rail float64
}

func (c Clip) Name() string { return "clip" }

func (c Clip) Apply(s []float64, _ Env) {
	if c.Rail <= 0 {
		return
	}
	for i, v := range s {
		if v > c.Rail {
			s[i] = c.Rail
		} else if v < -c.Rail {
			s[i] = -c.Rail
		}
	}
}

// Dropout zeroes individual samples with probability Rate per sample
// (missed ADC conversions). A Rate that is not positive (NaN included)
// disables the stage.
type Dropout struct {
	Rate float64
}

func (d Dropout) Name() string { return "dropout" }

func (d Dropout) Apply(s []float64, env Env) {
	if !(d.Rate > 0) {
		return
	}
	for i := 0; ; i++ {
		i += trace.FirstBelow(env.Rng, d.Rate, len(s)-i)
		if i >= len(s) {
			return
		}
		s[i] = 0
	}
}

// maxMeanRun caps Stuck's and Burst's MeanRun so that the run-length
// bound 2*MeanRun-1 is at most math.MaxInt instead of overflowing; a
// run that long outlasts any record anyway.
const maxMeanRun = math.MaxInt/2 + 1

// runBound returns the exclusive bound n for a run length 1+Intn(n),
// uniform in [1, 2*meanRun-1] with meanRun clamped to [1, maxMeanRun].
func runBound(meanRun int) int {
	return 2*min(max(meanRun, 1), maxMeanRun) - 1
}

// Stuck starts, with probability Rate per sample, a run in which the
// converter repeats its previous output (a stuck sample-and-hold). Run
// lengths are uniform in [1, 2*MeanRun-1], mean MeanRun. A Rate that
// is not positive (NaN included) disables the stage.
type Stuck struct {
	Rate    float64
	MeanRun int
}

func (g Stuck) Name() string { return "stuck" }

func (g Stuck) Apply(s []float64, env Env) {
	if !(g.Rate > 0) || len(s) < 2 {
		return
	}
	bound := runBound(g.MeanRun)
	// The sample right after a run draws no start test: the loop's
	// increment steps over it, and the pinned streams depend on that.
	for i := 1; i < len(s); i++ {
		i += trace.FirstBelow(env.Rng, g.Rate, len(s)-i)
		if i >= len(s) {
			return
		}
		end := i + min(1+env.Rng.Intn(bound), len(s)-i)
		hold := s[i-1]
		for ; i < end; i++ {
			s[i] = hold
		}
	}
}

// Burst adds runs of strong white noise (relay chatter, a neighbouring
// driver switching): with probability Rate per sample a burst of RMS
// amplitude starts, lasting uniform [1, 2*MeanRun-1] samples. A Rate or
// RMS that is not positive (NaN included) disables the stage.
type Burst struct {
	Rate    float64
	RMS     float64
	MeanRun int
}

func (b Burst) Name() string { return "burst" }

// burstChunk is how many normal draws Burst takes in one bulk call,
// into a stack buffer; longer runs take several.
const burstChunk = 64

func (b Burst) Apply(s []float64, env Env) {
	if !(b.Rate > 0) || !(b.RMS > 0) {
		return
	}
	bound := runBound(b.MeanRun)
	var noise [burstChunk]float64
	// As in Stuck, the sample right after a run draws no start test.
	for i := 0; i < len(s); i++ {
		i += trace.FirstBelow(env.Rng, b.Rate, len(s)-i)
		if i >= len(s) {
			return
		}
		end := i + min(1+env.Rng.Intn(bound), len(s)-i)
		for i < end {
			run := s[i:min(i+burstChunk, end)]
			trace.Normals(env.Rng, noise[:len(run)])
			for k, v := range noise[:len(run)] {
				run[k] += v * b.RMS
			}
			i += len(run)
		}
	}
}

// Drift applies slow front-end aging: by trace index i the gain has
// moved to 1 + GainPerTrace*i and the offset to OffsetPerTrace*i. Within
// one trace the drift is constant — aging is slow against a capture
// window.
type Drift struct {
	GainPerTrace   float64
	OffsetPerTrace float64
}

func (d Drift) Name() string { return "drift" }

func (d Drift) Apply(s []float64, env Env) {
	gain := 1 + d.GainPerTrace*float64(env.Index)
	offset := d.OffsetPerTrace * float64(env.Index)
	if gain == 1 && offset == 0 {
		return
	}
	for i, v := range s {
		s[i] = v*gain + offset
	}
}

// Jitter resamples the record with Gaussian sample-clock jitter of
// RMSFraction sample periods, by linear interpolation between the
// neighbouring true samples. An RMSFraction that is not positive (NaN
// included) disables the stage; +Inf acts as the largest finite value,
// moving every sample whose offset draw is nonzero to an end of the
// record and leaving a sample whose draw is exactly zero in place.
type Jitter struct {
	RMSFraction float64
}

func (j Jitter) Name() string { return "jitter" }

// jitterChunk is how many clock-offset draws Jitter takes in one bulk
// call, into a stack buffer.
const jitterChunk = 256

func (j Jitter) Apply(s []float64, env Env) {
	if !(j.RMSFraction > 0) || len(s) < 2 {
		return
	}
	rms := min(j.RMSFraction, math.MaxFloat64)
	orig := env.scratchBuf(len(s))
	copy(orig, s)
	max := float64(len(s) - 1)
	var offs [jitterChunk]float64
	for base := 0; base < len(s); base += jitterChunk {
		out := s[base:min(base+jitterChunk, len(s))]
		trace.Normals(env.Rng, offs[:len(out)])
		for k, off := range offs[:len(out)] {
			pos := float64(base+k) + off*rms
			if pos < 0 {
				pos = 0
			} else if pos > max {
				pos = max
			}
			lo := int(pos)
			frac := pos - float64(lo)
			if lo >= len(s)-1 {
				out[k] = orig[len(s)-1]
				continue
			}
			out[k] = orig[lo]*(1-frac) + orig[lo+1]*frac
		}
	}
}

// Flatline kills the channel outright (coil break, tamper) from trace
// index Start onward: the record collapses to the constant Level.
type Flatline struct {
	Start int
	Level float64
}

func (f Flatline) Name() string { return "flatline" }

func (f Flatline) Apply(s []float64, env Env) {
	if env.Index < f.Start {
		return
	}
	for i := range s {
		s[i] = f.Level
	}
}

// Profile bundles the standard fault mix of an aging front end at one
// severity knob, with magnitudes anchored to the healthy channel's
// signal RMS. Severity 1 is a plausibly degraded deployed sensor (mild
// bursts, slow drift, occasional glitches); severity grows every rate
// and amplitude linearly and pulls the ADC rail down toward the signal.
type Profile struct {
	// Severity scales every fault; <= 0 disables all stages.
	Severity float64
	// RefRMS is the healthy channel's signal RMS (sets absolute
	// magnitudes for bursts and offsets).
	RefRMS float64
	// RefPeak is the healthy channel's peak amplitude; the ADC rail is
	// anchored to it, since a converter's full scale is sized to the
	// signal's crest, not its RMS (EM current pulses are spiky — crest
	// factors of 5-6 are normal). Defaults to 3*RefRMS when zero.
	RefPeak float64
	// Span is the trace count over which the drift accrues to its full
	// value (GainDrift, OffsetDrift); <= 0 defaults to 100.
	Span int
	// GainDrift is the total relative gain drift at Severity 1 across
	// Span traces (default 0.08 when zero).
	GainDrift float64
	// OffsetDrift is the total offset drift at Severity 1 across Span
	// traces, as a multiple of RefRMS (default 0.25 when zero). Offset
	// enters a segment's RMS quadratically (sqrt(r^2 + o^2)), so the
	// apparent drift accelerates along the stream even though the offset
	// itself grows linearly.
	OffsetDrift float64
}

// maxSeverity caps the severity knob. Fleet configs are arithmetic on
// user input, so the profile must stay well-defined for any float64:
// past this point every rate is already saturated and the rail is
// essentially at zero, and an uncapped severity would push the drift
// gains to overflow. The cap keeps every stage parameter finite, which
// — with the clip rail applied last — keeps every output sample finite.
const maxSeverity = 1e6

// Stages materializes the profile into an ordered stage list: drift and
// jitter act on the analog path, then glitches and bursts, then the ADC
// rail clips last. The severity knob is clamped: NaN, zero and negative
// disable the chain entirely, +Inf and anything past maxSeverity clamp
// to maxSeverity — so any float64 yields a deterministic, finite chain.
func (p Profile) Stages() []Stage {
	if math.IsNaN(p.Severity) || p.Severity <= 0 {
		return nil
	}
	span := p.Span
	if span <= 0 {
		span = 100
	}
	gain := p.GainDrift
	if gain == 0 {
		gain = 0.08
	}
	offset := p.OffsetDrift
	if offset == 0 {
		offset = 0.25
	}
	sev := p.Severity
	if sev > maxSeverity {
		sev = maxSeverity
	}
	ref := p.RefRMS
	peak := p.RefPeak
	if peak <= 0 {
		peak = 3 * ref
	}
	// The rail starts above the signal crest and closes in as the chain
	// degrades: 2.4x the golden peak at severity 1 (clips nothing), 1.2x
	// at 2 (shaves the tallest pulses), 0.8x at 3 (real saturation).
	rail := 2.4 * peak / sev
	return []Stage{
		Drift{
			GainPerTrace:   gain * sev / float64(span),
			OffsetPerTrace: offset * sev * ref / float64(span),
		},
		// Jitter stays small: it is white per-trace noise, and even a few
		// percent of a sample period swamps the Eq. (1) threshold in a way
		// no slow-drift tracker can compensate.
		Jitter{RMSFraction: 0.01 * sev},
		Dropout{Rate: 0.001 * sev},
		Stuck{Rate: 0.0005 * sev, MeanRun: 6},
		// Bursts are rare but violent: interference arrives as sporadic
		// events a debouncer can ride out, not as a steady alarm floor.
		// Long runs on purpose — a burst parks enough samples at the ADC
		// rail for the health gate's clip-ratio check to call it.
		Burst{Rate: 0.0001 * sev, RMS: 8 * ref, MeanRun: 30},
		Clip{Rail: rail},
	}
}
