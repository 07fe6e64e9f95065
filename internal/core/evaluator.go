package core

import (
	"fmt"

	"emtrust/internal/stats"
	"emtrust/internal/trace"
)

// Evaluator is the runtime verdict pipeline — health gate, both
// detectors, the m-of-n debounce window, and guarded EWMA
// re-baselining — run synchronously on the calling goroutine. It is the
// engine inside Monitor, exposed directly for callers that multiplex
// many monitored devices over few goroutines (the fleet service runs
// one Evaluator per die inside a shard worker; a Monitor goroutine per
// die would not scale to thousands of dies).
//
// An Evaluator is stateful (debounce ring, drift baseline, sequence
// counter) and must not be used from multiple goroutines concurrently.
type Evaluator struct {
	fp     *Fingerprint
	sd     *SpectralDetector
	health *ChannelHealth
	db     *debouncer
	rb     *rebaseliner
	seq    int
	// feat/score/recon are the reused buffers behind the
	// allocation-free EvalChecked path.
	feat, score, recon []float64
}

// NewEvaluator builds the synchronous pipeline from fitted detectors.
// Options are interpreted as in NewMonitor; Buffer is ignored
// (there are no channels — the caller is the worker).
func NewEvaluator(fp *Fingerprint, sd *SpectralDetector, opts MonitorOptions) (*Evaluator, error) {
	if fp == nil && sd == nil {
		return nil, fmt.Errorf("core: evaluator needs at least one detector")
	}
	if err := opts.Debounce.validate(); err != nil {
		return nil, err
	}
	if err := opts.Rebaseline.validate(); err != nil {
		return nil, err
	}
	if opts.Rebaseline.enabled() && fp == nil {
		return nil, fmt.Errorf("core: re-baselining needs the time-domain fingerprint")
	}
	e := &Evaluator{fp: fp, sd: sd, health: opts.Health}
	if opts.Debounce.enabled() {
		e.db = newDebouncer(opts.Debounce)
	}
	if opts.Rebaseline.enabled() {
		e.rb = &rebaseliner{alpha: opts.Rebaseline.Alpha}
	}
	return e, nil
}

// Eval runs the full pipeline on one trace and returns its verdict.
// Sequence numbers are stamped in call order.
func (e *Evaluator) Eval(t *trace.Trace) Verdict {
	var hv HealthVerdict
	if e.health != nil {
		hv = e.health.Check(t)
	}
	return e.EvalChecked(t, hv, nil)
}

// EvalChecked is Eval for callers that already ran the health gate on
// this trace (and possibly extracted its features, sparing the
// pipeline a second extraction): hv must be this evaluator's health
// check result for t — pass a zero HealthVerdict when the evaluator
// was built without a health gate — and features, when non-nil, must
// be the trace's feature vector under the fingerprint's extractor.
// The verdict is bit-identical to Eval's. Score buffers are
// evaluator-owned and reused across calls; the returned Verdict holds
// no references into them, so the steady-state path allocates nothing.
func (e *Evaluator) EvalChecked(t *trace.Trace, hv HealthVerdict, features []float64) Verdict {
	v := Verdict{Seq: e.seq, Confidence: 1}
	e.seq++
	if e.health != nil {
		v.Health = hv
		v.Confidence = e.health.Confidence(hv)
		if hv.Rejected {
			if e.db != nil {
				v.Window = e.db.state() // window unchanged: no evidence either way
			}
			return v
		}
	}
	var score []float64
	if e.fp != nil {
		if features == nil {
			e.feat = e.fp.Extractor.ExtractInto(e.feat, t)
			features = e.feat
		}
		e.score, e.recon = e.fp.scoreInto(e.score, e.recon, features)
		score = e.score
		if e.rb == nil {
			d := stats.MinDistanceToSet(score, e.fp.Golden)
			v.Time = TimeVerdict{Distance: d, Threshold: e.fp.Threshold, Alarm: d > e.fp.Threshold}
		}
	}
	if e.sd != nil {
		v.Spectral = e.sd.Evaluate(t)
	}
	if e.rb != nil && score != nil {
		// rb.shift either returns score itself (no offset yet) or a fresh
		// shifted copy; neither path retains the reused buffer.
		d := stats.MinDistanceToSet(e.rb.shift(score), e.fp.Golden)
		v.Time = TimeVerdict{Distance: d, Threshold: e.fp.Threshold, Alarm: d > e.fp.Threshold}
	}
	raw := v.Time.Alarm || v.Spectral.Alarm
	if e.db != nil {
		v.Window = e.db.push(raw)
	}
	// Guarded re-baselining: adapt only on quiet traces (no raw alarm —
	// an alarming trace never feeds the baseline, so a Trojan's own
	// signature is never averaged in) and only while the debounce window
	// holds no alarm evidence at all. A marginal Trojan fires on some
	// traces and sits just under threshold on others; freezing on any
	// window evidence keeps those sub-threshold activations out of the
	// baseline too, instead of slowly averaging the Trojan in between
	// its own alarms.
	if e.rb != nil && score != nil && !raw && v.Window.Alarms == 0 {
		e.rb.update(score, e.fp.Centroid)
	}
	return v
}

// BaselineOffset returns a copy of the current drift-tracking offset in
// score space (nil when re-baselining is off or nothing has been
// adapted yet).
func (e *Evaluator) BaselineOffset() []float64 {
	if e.rb == nil {
		return nil
	}
	off := e.rb.snapshot()
	if len(off) == 0 {
		return nil
	}
	return off
}
