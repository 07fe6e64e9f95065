package fleet

import (
	"fmt"
	"math"
	"sync/atomic"

	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/degrade"
	"emtrust/internal/dsp"
	"emtrust/internal/emfield"
	"emtrust/internal/frand"
	"emtrust/internal/stats"
	"emtrust/internal/trace"
)

// Population holds the shared physics every die is derived from. The
// gate-level netlist, placement, and switching schedule are identical
// across process siblings — variation moves charge, not logic — so the
// fleet simulates the gates once and synthesizes each die's emf by
// re-weighting the shared per-tile current waveforms with that die's
// variation gains (emfield.EMFWeightedInto). That amortization is what
// makes thousands of dies tractable: per monitored round a die costs an
// acquisition and a verdict, not a gate-level simulation.
type Population struct {
	cfg      Config
	dt       float64
	coupling *emfield.Coupling
	// dormant is the deep-copied per-tile current waveform of the
	// Trojan-free steady state; active[k] are trojanStates captured
	// states of the planted Trojan.
	dormant [][]float64
	active  [][][]float64
}

// newPopulation builds the shared baseline: one chip, one dormant
// fixed-point capture, and a short orbit of Trojan-active captures.
func newPopulation(cfg Config) (*Population, error) {
	c, err := chip.New(cfg.Chip)
	if err != nil {
		return nil, err
	}
	if err := c.DeactivateAll(); err != nil {
		return nil, err
	}
	c.EnableA2(false)
	p := &Population{cfg: cfg, coupling: c.SensorCoupling()}

	capture := func() ([][]float64, error) {
		cap, err := c.CapturePT(cfg.Plaintext, cfg.Key, cfg.CaptureCycles)
		if err != nil {
			return nil, err
		}
		p.dt = cap.Dt
		// Tiles alias the recorder's reusable buffers; copy before the
		// next capture overwrites them.
		tiles := make([][]float64, len(cap.Tiles))
		for i, w := range cap.Tiles {
			tiles[i] = append([]float64(nil), w...)
		}
		return tiles, nil
	}
	if _, err := capture(); err != nil { // warm-up, discarded
		return nil, err
	}
	if p.dormant, err = capture(); err != nil {
		return nil, err
	}

	if cfg.Prevalence > 0 {
		if c.Trojan(plantedTrojan) == nil {
			return nil, fmt.Errorf("fleet: chip build carries no %v Trojan", plantedTrojan)
		}
		if err := c.SetTrojan(plantedTrojan, true); err != nil {
			return nil, err
		}
		if _, err := capture(); err != nil { // trigger transient, discarded
			return nil, err
		}
		for k := 0; k < trojanStates; k++ {
			tiles, err := capture()
			if err != nil {
				return nil, err
			}
			p.active = append(p.active, tiles)
		}
		if err := c.SetTrojan(plantedTrojan, false); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// commonGain is the fleet-wide gain wobble at one monitored round —
// identical on every die, which is exactly what the cross-die reference
// must cancel.
func (p *Population) commonGain(round int) float64 {
	return 1 + commonModeAmp*math.Sin(2*math.Pi*float64(round)/commonModePeriod)
}

// Die is one deployed device: a variation sibling of the shared build
// with its own degrade profile, its own enrolled fingerprint, and its
// own verdict pipeline. All mutable state is owned by the shard that
// ticks it; only the quarantine flag is shared with the aggregator.
type Die struct {
	ID int
	// Infected marks the die fabricated with the Trojan (ground truth
	// for evaluating the alarm list; the detectors never see it).
	Infected bool
	// Flatlined marks the die configured to lose its sensor mid-run.
	Flatlined bool

	pop      *Population
	severity float64
	dormant  []float64   // clean emf of this die's healthy state
	active   [][]float64 // clean emf per Trojan state (infected only)
	// rng is the die's reusable generator: every draw site reseeds it
	// with dieSeed, which yields the same stream as a fresh generator
	// without the per-draw allocation.
	rng *frand.Rand
	// acqAcc accumulates the trimmed mean in place and is the trace
	// handed to the verdict pipeline; acqDraw holds the current raw
	// draw. Both are die-owned and overwritten by the next acquire.
	acqAcc, acqDraw *trace.Trace
	// acqLo/acqHi are acquire's per-sample min/max scratch for the
	// trimmed mean.
	acqLo, acqHi []float64
	// featBuf is the reused feature vector returned by features;
	// score/recon are the fingerprint's reused score and reconstruction
	// buffers behind tick's distance.
	featBuf, score, recon []float64
	channel               *degrade.Channel
	health                *core.ChannelHealth
	// level/trend are the die's guarded Holt tracker over the projected
	// score vector: level+trend predicts the next healthy-aging score,
	// and the tracker learns only while the residual norm stays inside
	// the freeze guard. Tracking the vector rather than the scalar
	// distance matters: once aging dominates, a Trojan's contribution to
	// the distance norm is quadratically suppressed (||drift + delta|| ≈
	// ||drift|| + ||delta||²/2||drift|| for orthogonal delta), but the
	// prediction residual still carries the full delta vector. The trend
	// term follows the degrade profile's accelerating offset drift; the
	// guard (with trend coasting while frozen) keeps a Trojan's step
	// from being learned away.
	fp           *core.Fingerprint
	level, trend []float64
	resid        []float64
	// ewmaVec integrates the prediction residual vector coherently: a
	// Trojan's delta has a fixed direction in score space, so it
	// accumulates toward its full length while isotropic channel noise
	// averages down as sqrt(smoothAlpha/(2-smoothAlpha)). The die's z is
	// the null-calibrated norm of this vector, not of a single round's
	// residual — integration is what buys the detection margin that a
	// severity-2 channel's single-shot SNR cannot.
	ewmaVec []float64
	// med/sigma calibrate the null distribution of the integrated
	// residual norm (the reported z); medR/sigmaR calibrate the
	// single-round residual norm, which gates the tracker freeze — the
	// instantaneous statistic crosses the guard on the very first
	// post-activation round, before the fast tracker can absorb any of
	// the step, while the integrated one needs a few rounds to build.
	med, sigma   float64
	medR, sigmaR float64
	// fitCount is the acquisition timeline index where monitoring
	// starts (enrollment consumed the earlier indices).
	fitCount int

	// quarantined is set by the shard and read by the aggregator.
	quarantined atomic.Bool
	// busy guards against re-entering a die whose timed-out tick is
	// still running on an abandoned goroutine.
	busy atomic.Bool
	// consecutiveBad counts health-rejected or still-stuck ticks;
	// consecutiveTimeouts counts watchdog overruns of any grade with no
	// successful verdict in between (both shard-local).
	consecutiveBad      int
	consecutiveTimeouts int
	// consecutiveLocalized counts consecutive frozen rounds whose
	// integrated residual is concentrated in a single segment — the
	// signature of a localized channel fault (a converter rail the
	// drifting gain is pushing the waveform peak into), not of a Trojan.
	consecutiveLocalized int
}

// verdict is one die's monitored round, queued to the aggregator. It
// carries only what the aggregator and the shards read of the round's
// core.Verdict: the Eq. (1) distance and the health gate's rejection.
type verdict struct {
	die      int
	round    int
	distance float64
	// z is the die's drift-prediction residual in null-calibrated sigma
	// units (NaN when the health gate rejected the trace).
	z        float64
	rejected bool
}

// spawn derives die id from the population. It is index-addressed and
// safe to run in parallel across dies.
func (p *Population) spawn(id int) (*Die, error) {
	cfg := p.cfg
	d := &Die{ID: id, pop: p}

	// Per-die process sample: a die-wide corner times per-tile jitter,
	// the tile-level image of power.Config's corner/variation model
	// (per-cell variation averages out within a tile; the corner is
	// what distinguishes dies macroscopically).
	prng := frand.NewRand(dieSeed(cfg.Seed, id, purposeParams, 0))
	corner := 1 + cornerSigma*prng.NormFloat64()
	if corner < 0.1 {
		corner = 0.1
	}
	gains := make([]float64, len(p.coupling.M))
	for t := range gains {
		g := corner * (1 + variationSigma*prng.NormFloat64())
		if g < 0.1 {
			g = 0.1
		}
		gains[t] = g
	}
	d.Infected = prng.Float64() < cfg.Prevalence && len(p.active) > 0
	d.severity = cfg.Severity * (0.5 + prng.Float64())
	flatline := prng.Float64() < cfg.FlatlineRate

	// This die's clean waveforms, synthesized from the shared tiles.
	d.dormant = p.coupling.EMFWeightedInto(nil, p.dormant, p.dt, gains)
	if d.Infected {
		d.active = make([][]float64, len(p.active))
		for k, tiles := range p.active {
			d.active[k] = p.coupling.EMFWeightedInto(nil, tiles, p.dt, gains)
		}
	}
	// The die-owned generator is reseeded per acquisition draw, so it
	// is the concrete math/rand replica — same value streams, jumpable
	// seed chain, and no interface hops per sample (see internal/frand).
	d.rng = frand.NewRand(0)
	d.acqAcc = &trace.Trace{Samples: make([]float64, 0, len(d.dormant))}
	d.acqDraw = &trace.Trace{Samples: make([]float64, 0, len(d.dormant))}

	// The die's acquisition chain: the healthy simulation channel
	// wrapped in this die's aging profile (and, for the unlucky ones, a
	// mid-run coil break).
	refRMS := dsp.RMS(d.dormant)
	peak := dsp.PeakAbs(d.dormant)
	stages := degrade.Profile{
		Severity: d.severity,
		RefRMS:   refRMS,
		RefPeak:  peak,
		Span:     cfg.DriftSpan,
	}.Stages()
	fit := cfg.GoldenTraces + cfg.NullTraces
	if flatline {
		d.Flatlined = true
		// The coil breaks somewhere in the first DriftSpan monitored
		// rounds, always after enrollment AND null calibration — a die
		// already dead at calibration is born quarantined, which is a
		// different (and less interesting) failure than losing a sensor
		// mid-deployment.
		stages = append(stages, degrade.Flatline{Start: fit + 2*cfg.NullTraces + prng.Intn(cfg.DriftSpan)})
	}
	d.channel = degrade.Wrap(chip.SimulationChannels().Sensor, stages...)

	// Post-deployment enrollment on the die's own channel: fingerprint
	// and health envelope from GoldenTraces, then NullTraces more to
	// calibrate the null distance distribution (median/MAD), so every
	// die's z-scores share a scale regardless of its variation corner
	// and channel noise.
	golden := make([]*trace.Trace, cfg.GoldenTraces)
	for i := range golden {
		// Clone: acquire returns the die-owned reusable buffer, and the
		// golden set is retained by the fingerprint and health builders.
		golden[i] = d.acquire(i, d.dormant, 1, purposeGolden, uint64(i)).Clone()
	}
	fp, err := core.BuildFingerprint(golden, core.DefaultFingerprintConfig())
	if err != nil {
		return nil, fmt.Errorf("fleet: die %d fingerprint: %w", id, err)
	}
	hcfg := core.DefaultHealthConfig()
	health, err := core.BuildChannelHealth(golden, hcfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: die %d health: %w", id, err)
	}
	// Post-deployment enrollment must accept the die's own baseline: a
	// severe corner whose ADC rail sits below the signal peak clips a
	// few percent of every record, enrollment and monitoring alike. The
	// default clip tolerance would reject such a die's every trace, so
	// widen it to double the worst clipping enrollment itself produced —
	// a converter that later saturates much harder than its birth state
	// still trips the gate.
	maxClip := 0.0
	for _, g := range golden {
		if v := health.Check(g); v.Clipped > maxClip {
			maxClip = v.Clipped
		}
	}
	if tol := 2*maxClip + 0.005; tol > hcfg.MaxClippedRatio {
		hcfg.MaxClippedRatio = tol
		if health, err = core.BuildChannelHealth(golden, hcfg); err != nil {
			return nil, fmt.Errorf("fleet: die %d health: %w", id, err)
		}
	}
	d.health = health

	// Null calibration runs on the live (already aging) channel, in two
	// stages that mirror what monitoring will actually do. The first
	// span's healthy traces are fit with a per-dimension Theil–Sen
	// regression that seeds the Holt tracker (level, trend): the robust
	// fit is load-bearing, since a glitched trace that survives the trim
	// would pull an online tracker's seed by holtAlpha times the glitch
	// and pollute its trend. Then the ONLINE GUARDED TRACKER ITSELF is
	// replayed over the second span, and its one-step-ahead prediction
	// residuals set the die's null median/MAD. Replaying the real
	// process is the point: a fitted line's in-sample residuals are far
	// tighter than any out-of-sample prediction — the fitted slope
	// carries estimation error that grows an extrapolated residual
	// linearly with distance, and a per-die slope-error vector is fixed
	// in direction, so the coherent integrator accumulates it exactly
	// like a Trojan step. Null scales taken in-sample therefore
	// understate monitoring residuals for every die, and clean dies in
	// the tail of the slope-error draw ratchet into permanent false
	// alarms. The online replay's residuals include tracker lag, seed
	// error, and channel noise in the same proportions monitoring will
	// see, because monitoring simply continues the replayed process from
	// its end state.
	d.fp = fp
	feats := make([][]float64, 2*cfg.NullTraces)
	firstX := make([]float64, 0, cfg.NullTraces)
	firstY := make([][]float64, 0, cfg.NullTraces)
	accepted := 0 // second-span traces that passed the health gate
	for i := range feats {
		idx := fit + i
		t := d.acquire(idx, d.dormant, 1, purposeNull, uint64(i))
		if d.health.Check(t).Rejected {
			continue
		}
		feats[i] = append([]float64(nil), d.features(t)...)
		if i < cfg.NullTraces {
			firstX = append(firstX, float64(idx))
			firstY = append(firstY, feats[i])
		} else {
			accepted++
		}
	}
	nullInt := make([]float64, 0, accepted)
	nullRes := make([]float64, 0, accepted)
	if len(firstX) >= 2 && accepted >= 2 {
		dims := len(firstY[0])
		d.level = make([]float64, dims)
		d.trend = make([]float64, dims)
		d.resid = make([]float64, dims)
		d.ewmaVec = make([]float64, dims)
		seedLevel := make([]float64, dims)
		seedTrend := make([]float64, dims)
		xSeed := float64(fit + cfg.NullTraces - 1)
		for j := 0; j < dims; j++ {
			slope, icept := theilSen(firstX, firstY, j)
			seedTrend[j] = slope
			seedLevel[j] = icept + slope*xSeed
		}
		reseed := func() {
			copy(d.level, seedLevel)
			copy(d.trend, seedTrend)
			for j := range d.ewmaVec {
				d.ewmaVec[j] = 0
			}
		}
		// Pass one: unguarded online replay of the second span, giving
		// the provisional residual scales the guard needs.
		reseed()
		prov := make([]float64, 0, accepted)
		for i := cfg.NullTraces; i < 2*cfg.NullTraces; i++ {
			y := feats[i]
			if y == nil {
				d.coast()
				continue
			}
			prov = append(prov, d.residNorm(y))
			d.track(y)
		}
		medR0, sigmaR0 := robustScale(prov)
		// Pass two: the exact monitoring loop — guarded tracking plus
		// the coherent integrator — whose residual norms and integrated
		// norms become the final null scales and whose end state the
		// monitored stream continues seamlessly. The integrator is
		// burned in over the first span's in-sample residuals so the
		// second span's integrated norms sample the steady state rather
		// than a ramp from zero (a ramp's MAD wildly understates the
		// steady-state fluctuation, leaving z hair-triggered).
		reseed()
		capR := medR0 + thresholdK*sigmaR0
		for i := 0; i < cfg.NullTraces; i++ {
			y := feats[i]
			if y == nil {
				continue
			}
			x := float64(fit + i)
			rn := 0.0
			for j := range y {
				r := y[j] - (seedLevel[j] + seedTrend[j]*(x-xSeed))
				d.resid[j] = r
				rn += r * r
			}
			d.integrate(math.Sqrt(rn), capR)
		}
		for i := cfg.NullTraces; i < 2*cfg.NullTraces; i++ {
			y := feats[i]
			if y == nil {
				d.coast()
				continue
			}
			rn := d.residNorm(y)
			nullRes = append(nullRes, rn)
			nullInt = append(nullInt, d.integrate(rn, capR))
			if (rn-medR0)/sigmaR0 > thresholdK {
				d.coast()
			} else {
				d.track(y)
			}
		}
	}
	if len(nullInt) < 2 {
		// The channel is already unusable at enrollment (a severe draw):
		// the die is born quarantined — a maintenance case, never a
		// member of the false-discovery family — so its garbage
		// calibration can never reach the ranking.
		d.quarantined.Store(true)
		nullInt = append(nullInt, 0, 0)
		nullRes = append(nullRes, 0, 0)
	}
	if d.level == nil {
		n := fp.Extractor.Segments
		if n <= 0 {
			n = 32
		}
		d.level = make([]float64, n)
		d.trend = make([]float64, n)
		d.resid = make([]float64, n)
		d.ewmaVec = make([]float64, n)
	}
	d.med, d.sigma = robustScale(nullInt)
	d.medR, d.sigmaR = robustScale(nullRes)
	d.fitCount = fit + 2*cfg.NullTraces
	return d, nil
}

// theilSen fits dimension j of the calibration points robustly: the
// slope is the median of all pairwise slopes, the intercept the median
// of the per-point intercepts at that slope. Up to just under half the
// span can be glitched without moving the fit.
func theilSen(x []float64, y [][]float64, j int) (slope, intercept float64) {
	n := len(x)
	slopes := make([]float64, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if dx := x[b] - x[a]; dx != 0 {
				slopes = append(slopes, (y[b][j]-y[a][j])/dx)
			}
		}
	}
	if len(slopes) == 0 {
		return 0, y[0][j]
	}
	slope = stats.Summarize(slopes).Median
	icepts := make([]float64, n)
	for a := 0; a < n; a++ {
		icepts[a] = y[a][j] - slope*x[a]
	}
	return slope, stats.Summarize(icepts).Median
}

// robustScale returns the median and a floored MAD-sigma of one null
// sample. It keeps Summarize's averaged median rather than
// stats.RobustScale's upper one: the null samples usually have even
// length, and the upper median would move every die's calibration and
// so the fleet's pinned verdict stream.
func robustScale(null []float64) (med, sigma float64) {
	med = stats.Summarize(null).Median
	dev := make([]float64, len(null))
	for i, v := range null {
		dev[i] = math.Abs(v - med)
	}
	sigma = 1.4826 * stats.Summarize(dev).Median
	if floor := 0.05 * med; sigma < floor {
		sigma = floor
	}
	if !(sigma > 0) {
		sigma = 1e-30
	}
	return med, sigma
}

// Tracker and integrator gains. The level tracks fast so the Holt
// filter converges well inside the calibration settle span (a tracker
// still converging when the null is sampled biases the whole z scale);
// fast tracking is safe against absorption because the trimmed-mean
// acquisition leaves the Trojan step many nulls-sigmas tall, so the
// freeze guard engages on the very first post-activation round, before
// the tracker ever learns from it. The trend is slower — it only needs
// to follow drift whose time constant is DriftSpan rounds. smoothAlpha
// sets the residual integrator's horizon (~1/smoothAlpha rounds):
// noise in the integrated vector shrinks by
// sqrt(smoothAlpha/(2-smoothAlpha)) ≈ 0.36 while a persistent
// (frozen-out) delta passes through whole.
const (
	holtAlpha   = 0.4
	holtBeta    = 0.1
	smoothAlpha = 0.25
)

// localizedShare is the single-segment share of the integrated
// residual's energy beyond which a persistent anomaly is read as a
// localized channel fault rather than a Trojan. Empirically the stock
// Trojans' emission deltas spread across segments (top share 0.3-0.5,
// the payload modulates the whole encryption window) while progressive
// rail clipping concentrates 0.8+ of the energy in the peak's segment.
const localizedShare = 0.6

// features maps a trace to the tracked observation vector: the raw
// segment-RMS features rather than the fingerprint's PCA scores. The
// PCA basis is fit on a dozen same-wave golden traces, so its
// components span the channel's noise directions, not the signal's —
// most of a Trojan's emission delta lands in the Q-residual dimension,
// where a large noise floor suppresses it quadratically
// (sqrt(Q²+δ²) ≈ Q + δ²/2Q). The raw features keep the delta linear,
// and segment RMS is itself noise-quenching: uncorrelated noise enters
// a segment's RMS quadratically while in-band signal change passes
// straight through.
// The returned slice is the die-owned featBuf, overwritten by the next
// call — callers that retain it must copy.
func (d *Die) features(t *trace.Trace) []float64 {
	d.featBuf = d.fp.Extractor.ExtractInto(d.featBuf, t)
	return d.featBuf
}

// residNorm returns ||score - (level + trend)||, the prediction
// residual norm, filling d.resid as scratch. The loop is unrolled
// four-wide but keeps one sequential accumulator — the squared terms
// are added in exactly the original index order, so the norm is
// bit-identical to the rolled loop (a multi-accumulator reduction
// would reassociate the sum and drift the pinned verdict stream).
func (d *Die) residNorm(score []float64) float64 {
	sum := 0.0
	level, trend, resid := d.level, d.trend, d.resid
	j := 0
	for ; j+4 <= len(score); j += 4 {
		r0 := score[j] - (level[j] + trend[j])
		r1 := score[j+1] - (level[j+1] + trend[j+1])
		r2 := score[j+2] - (level[j+2] + trend[j+2])
		r3 := score[j+3] - (level[j+3] + trend[j+3])
		resid[j], resid[j+1], resid[j+2], resid[j+3] = r0, r1, r2, r3
		sum += r0 * r0
		sum += r1 * r1
		sum += r2 * r2
		sum += r3 * r3
	}
	for ; j < len(score); j++ {
		r := score[j] - (level[j] + trend[j])
		resid[j] = r
		sum += r * r
	}
	return math.Sqrt(sum)
}

// integrate folds the current residual vector (d.resid, filled by
// residNorm) into the coherent integrator and returns the integrated
// norm — the raw material of the die's z-score. The contribution is
// winsorized: a residual whose norm rn exceeds cap (the freeze-guard
// boundary, medR + K·sigmaR) is scaled down to exactly cap before
// integration. Detection loses nothing — a Trojan's step is
// persistent, so its capped contribution arrives in the same direction
// every round and the integrator still converges to the full cap, many
// null-sigmas above the integrated norm's median — while a one-off
// channel burst that beat the trimmed mean and the health gate can
// only buy one capped round, a few-sigma bump that drains on the next
// round instead of a 100-sigma spike that takes ten rounds at
// (1-smoothAlpha) per round to decay below threshold.
func (d *Die) integrate(rn, cap float64) float64 {
	scale := 1.0
	if rn > cap && rn > 0 {
		scale = cap / rn
	}
	// Unrolled four-wide with a single sequential accumulator, same
	// bit-identity constraint as residNorm.
	sum := 0.0
	resid, ew := d.resid, d.ewmaVec
	j := 0
	for ; j+4 <= len(resid); j += 4 {
		e0, e1, e2, e3 := ew[j], ew[j+1], ew[j+2], ew[j+3]
		e0 += smoothAlpha * (scale*resid[j] - e0)
		e1 += smoothAlpha * (scale*resid[j+1] - e1)
		e2 += smoothAlpha * (scale*resid[j+2] - e2)
		e3 += smoothAlpha * (scale*resid[j+3] - e3)
		ew[j], ew[j+1], ew[j+2], ew[j+3] = e0, e1, e2, e3
		sum += e0 * e0
		sum += e1 * e1
		sum += e2 * e2
		sum += e3 * e3
	}
	for ; j < len(resid); j++ {
		e := ew[j]
		e += smoothAlpha * (scale*resid[j] - e)
		ew[j] = e
		sum += e * e
	}
	return math.Sqrt(sum)
}

// track folds one accepted score vector into the tracker.
func (d *Die) track(score []float64) {
	for j, v := range score {
		pred := d.level[j] + d.trend[j]
		prev := d.level[j]
		d.level[j] = holtAlpha*v + (1-holtAlpha)*pred
		d.trend[j] = holtBeta*(d.level[j]-prev) + (1-holtBeta)*d.trend[j]
	}
}

// coast advances the prediction along the learned trend without
// learning from the current round — used while frozen (residual beyond
// the guard) and across health-rejected rounds, so healthy aging keeps
// being discounted while a persistent step stays visible.
func (d *Die) coast() {
	for j := range d.level {
		d.level[j] += d.trend[j]
	}
}

// topShare returns the largest single-coordinate share of the
// integrated residual's energy.
func (d *Die) topShare() float64 {
	top, sum := 0.0, 0.0
	for _, v := range d.ewmaVec {
		v *= v
		sum += v
		if v > top {
			top = v
		}
	}
	if sum <= 0 {
		return 0
	}
	return top / sum
}

// acquire combines cfg.TickAverages back-to-back acquisitions of wave
// at one timeline index into one trace, per-sample, with the min and
// max draw dropped (a trimmed mean once there are at least four
// draws). Drift and flatline depend on the index alone, so the
// combined trace carries the full aging state; the trim is what makes
// the difference at high severity — burst and dropout glitches corrupt
// one draw at a time, so a plain mean lets a single 8×RMS burst leak
// amplitude/M into the features while the trim removes it outright,
// and the remaining white/jitter noise still averages down by
// ~sqrt(TickAverages).
// The returned trace is the die-owned acqAcc buffer, overwritten by the
// next acquire — callers that retain it (enrollment) must Clone. The
// amplitude scale is folded into the acquisition itself, so the caller
// never copies the waveform to apply a gain.
func (d *Die) acquire(idx int, wave []float64, scale float64, purpose int, index uint64) *trace.Trace {
	cfg := d.pop.cfg
	m := uint64(cfg.TickAverages)
	d.rng.Seed(dieSeed(cfg.Seed, d.ID, purpose, index*m))
	t := d.channel.AcquireAtInto(idx, d.acqAcc, wave, scale, d.pop.dt, d.rng)
	if m == 1 {
		return t
	}
	trim := m >= 4
	if len(d.acqLo) != len(t.Samples) {
		d.acqLo = make([]float64, len(t.Samples))
		d.acqHi = make([]float64, len(t.Samples))
	}
	acc, lo, hi := t.Samples, d.acqLo, d.acqHi
	copy(lo, acc)
	copy(hi, acc)
	for k := uint64(1); k < m; k++ {
		d.rng.Seed(dieSeed(cfg.Seed, d.ID, purpose, index*m+k))
		r := d.channel.AcquireAtInto(idx, d.acqDraw, wave, scale, d.pop.dt, d.rng)
		// One fused pass: sum for the mean, min/max for the trim. The
		// builtins compile to branchless selects; they differ from
		// compare-and-assign only on NaN and on -0 against +0, and
		// neither reaches here: the channel's samples are finite, and
		// a sum is -0 only when both its terms are, which the sensor
		// noise term never is.
		for j, v := range r.Samples {
			acc[j] += v
			lo[j] = min(lo[j], v)
			hi[j] = max(hi[j], v)
		}
	}
	if trim {
		inv := 1 / float64(m-2)
		for j := range acc {
			acc[j] = (acc[j] - lo[j] - hi[j]) * inv
		}
	} else {
		inv := 1 / float64(m)
		for j := range acc {
			acc[j] *= inv
		}
	}
	return t
}

// tick runs one monitored round: synthesize the die's current state,
// acquire through its degrading channel (with one bounded retry on a
// health reject), and evaluate. Deterministic in (die, round).
func (d *Die) tick(round int) verdict {
	cfg := d.pop.cfg
	wave := d.dormant
	if d.Infected && round >= cfg.ActivationRound && len(d.active) > 0 {
		wave = d.active[(round-cfg.ActivationRound)%len(d.active)]
	}
	g := d.pop.commonGain(round)
	idx := d.fitCount + round
	t := d.acquire(idx, wave, g, purposeTick, uint64(round))
	hv := d.health.Check(t)
	if hv.Rejected {
		// One re-acquisition: transient bursts pass on retry, a dead
		// coil fails again and walks toward quarantine.
		t = d.acquire(idx, wave, g, purposeRetry, uint64(round))
		hv = d.health.Check(t)
	}
	// A rejected round reports distance 0 and NaN z. An accepted one
	// reports the fingerprint distance of its features, and the same
	// features feed the drift tracker below: the die tracks drift and
	// leaves alarming to the fleet ranking, so it needs no Eq. (1)
	// threshold, debounce or re-baseliner.
	distance, z := 0.0, math.NaN()
	if hv.Rejected {
		d.coast()
	} else {
		feats := d.features(t)
		d.score, d.recon = d.fp.ScoreInto(d.score, d.recon, feats)
		distance = stats.MinDistanceToSet(d.score, d.fp.Golden)
		rn := d.residNorm(feats)
		zi := (rn - d.medR) / d.sigmaR
		z = (d.integrate(rn, d.medR+thresholdK*d.sigmaR) - d.med) / d.sigma
		if zi > thresholdK {
			// Frozen: this round's residual is beyond anything aging
			// produces, so don't learn from it — coast on the held trend
			// while the integrator accumulates the step. The gate is the
			// instantaneous statistic alone, and that is deliberate. It
			// beats the fast tracker to a fresh activation step (zi
			// crosses on the very first post-activation round), and it
			// keeps a persistent step frozen by itself: coasting holds
			// the prediction away from the stepped observations, so an
			// infected die re-trips the gate every round. Gating on the
			// integrated z as well would pin CLEAN dies: after a one-off
			// burst the integrator's memory holds z up for several rounds
			// while the channel is already back to normal, the tracker
			// coasts on those perfectly learnable rounds, its trend error
			// compounds, and the die ratchets into a permanent false
			// alarm. Freezing only on fresh evidence means a glitched
			// clean die resumes tracking the next round and its
			// integrator drains back to the null.
			d.coast()
			// A persistent anomaly living in a single segment is a
			// channel fault (progressive rail saturation), not a
			// Trojan: retire the die to maintenance instead of letting
			// it ratchet into the alarm list.
			if d.topShare() > localizedShare {
				if d.consecutiveLocalized++; d.consecutiveLocalized >= cfg.QuarantineAfter {
					d.quarantined.Store(true)
				}
			} else {
				d.consecutiveLocalized = 0
			}
		} else {
			d.track(feats)
			d.consecutiveLocalized = 0
		}
	}
	return verdict{die: d.ID, round: round, distance: distance, z: z, rejected: hv.Rejected}
}
