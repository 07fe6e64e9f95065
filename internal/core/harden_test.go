package core

import (
	"math"
	"math/rand"
	"testing"

	"emtrust/internal/trace"
)

// Adversarial coverage for the hardening stages: the debouncer at its
// m-of-n boundaries, the health gate swallowing unusable traces, and
// the guarded re-baseliner refusing to absorb a Trojan's step change.

func TestDebouncerBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		m, n    int
		alarms  []bool
		confirm []bool // expected Confirmed after each push
	}{
		{
			name: "1-of-1 tracks raw",
			m:    1, n: 1,
			alarms:  []bool{false, true, false, true},
			confirm: []bool{false, true, false, true},
		},
		{
			name: "2-of-3 single blip suppressed",
			m:    2, n: 3,
			alarms:  []bool{true, false, false, false},
			confirm: []bool{false, false, false, false},
		},
		{
			name: "2-of-3 confirms on second hit",
			m:    2, n: 3,
			alarms:  []bool{true, false, true, false, false},
			confirm: []bool{false, false, true, false, false},
		},
		{
			name: "3-of-3 needs a full window",
			m:    3, n: 3,
			alarms:  []bool{true, true, false, true, true, true},
			confirm: []bool{false, false, false, false, false, true},
		},
		{
			name: "2-of-5 old alarms age out",
			m:    2, n: 5,
			// Two early alarms confirm; once the window slides past the
			// first of them the count drops below M and must release.
			alarms:  []bool{true, true, false, false, false, false, false},
			confirm: []bool{false, true, true, true, true, false, false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDebouncer(DebounceConfig{M: tc.m, N: tc.n})
			for i, a := range tc.alarms {
				w := d.push(a)
				if w.Confirmed != tc.confirm[i] {
					t.Fatalf("push %d (alarm=%t): confirmed=%t, want %t (window %d/%d)",
						i, a, w.Confirmed, tc.confirm[i], w.Alarms, w.N)
				}
				if w.M != tc.m || w.N != tc.n {
					t.Fatalf("window echoes %d-of-%d, want %d-of-%d", w.M, w.N, tc.m, tc.n)
				}
			}
		})
	}
}

func TestMonitorOptionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	fp, err := BuildFingerprint(goldenSet(rng, 8, 256), DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts MonitorOptions
	}{
		{"M zero", MonitorOptions{Debounce: DebounceConfig{M: 0, N: 3}}},
		{"M above N", MonitorOptions{Debounce: DebounceConfig{M: 4, N: 3}}},
		{"negative alpha", MonitorOptions{Rebaseline: RebaselineConfig{Alpha: -0.1}}},
		{"alpha above one", MonitorOptions{Rebaseline: RebaselineConfig{Alpha: 1.5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewEvaluator(fp, nil, tc.opts); err == nil {
				t.Fatal("want a configuration error")
			}
		})
	}
	// Re-baselining without a time-domain fingerprint is meaningless.
	sd, err := BuildSpectralDetector(goldenSet(rng, 8, 512), DefaultSpectralConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(nil, sd, MonitorOptions{Rebaseline: RebaselineConfig{Alpha: 0.1}}); err == nil {
		t.Fatal("rebaseline without fingerprint must error")
	}
}

// pulseTrace synthesizes a spiky EM-style record: a quiet noise floor
// with a tall current pulse every 32 samples, crest factor around 5
// like the simulated die's near-field waveform. The health gate's
// spike check is calibrated against the golden peak, so its interplay
// with the RMS envelope only shows up at a realistic crest factor — a
// low-crest stimulus trips the spike check long before the envelope.
func pulseTrace(rng *rand.Rand, n int) *trace.Trace {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.05 * rng.NormFloat64()
		if i%32 == 16 {
			s[i] += 1 + 0.02*rng.NormFloat64()
		}
	}
	return &trace.Trace{Dt: testDt, Samples: s}
}

func pulseGoldenSet(rng *rand.Rand, count, n int) []*trace.Trace {
	out := make([]*trace.Trace, count)
	for i := range out {
		out[i] = pulseTrace(rng, n)
	}
	return out
}

func TestChannelHealthChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	golden := pulseGoldenSet(rng, 10, 512)
	h, err := BuildChannelHealth(golden, DefaultHealthConfig())
	if err != nil {
		t.Fatal(err)
	}
	flat := &trace.Trace{Dt: testDt, Samples: make([]float64, 512)}
	// Saturation: every current pulse clamps at half height, parking 16
	// of 512 samples at the record's own rail.
	clipped := pulseTrace(rng, 512)
	for i := range clipped.Samples {
		if clipped.Samples[i] > 0.5 {
			clipped.Samples[i] = 0.5
		} else if clipped.Samples[i] < -0.5 {
			clipped.Samples[i] = -0.5
		}
	}
	// Burst interference: a short run of samples far beyond the golden
	// peak, with varied magnitudes so no clipping plateau forms.
	burst := pulseTrace(rng, 512)
	for j := 0; j < 8; j++ {
		sign := 1.0
		if j%2 == 1 {
			sign = -1
		}
		burst.Samples[100+j] = sign * (2.5 + rng.Float64())
	}
	// RMS high without spikes: a sine carries four-plus times the golden
	// energy while its peak stays under the spike limit — only possible
	// because the golden waveform's crest factor is high. Noise breaks
	// the smooth crest so no samples pin at the record maximum.
	loud := &trace.Trace{Dt: testDt, Samples: make([]float64, 512)}
	for i := range loud.Samples {
		loud.Samples[i] = 1.2*math.Sin(2*math.Pi*float64(i)/64) + 0.03*rng.NormFloat64()
	}
	quiet := pulseTrace(rng, 512)
	for i := range quiet.Samples {
		quiet.Samples[i] *= 0.05
	}
	cases := []struct {
		name   string
		tr     *trace.Trace
		reason string
	}{
		{"healthy", pulseTrace(rng, 512), ""},
		{"flatline", flat, "flatline"},
		{"empty", &trace.Trace{Dt: testDt}, "flatline"},
		{"clipped", clipped, "clipping"},
		{"burst", burst, "burst"},
		{"rms high", loud, "rms"},
		{"rms low", quiet, "rms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := h.Check(tc.tr)
			if (tc.reason != "") != v.Rejected || v.Reason != tc.reason {
				t.Fatalf("verdict %+v, want reason %q", v, tc.reason)
			}
			c := h.Confidence(v)
			if v.Rejected && c != 0 {
				t.Fatalf("rejected trace confidence %g, want 0", c)
			}
			if !v.Rejected && (c <= 0 || c > 1) {
				t.Fatalf("confidence %g outside (0, 1]", c)
			}
		})
	}
}

func TestConfidenceDegradesBeforeRejection(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	h, err := BuildChannelHealth(pulseGoldenSet(rng, 10, 512), DefaultHealthConfig())
	if err != nil {
		t.Fatal(err)
	}
	pristine := h.Confidence(h.Check(pulseTrace(rng, 512)))
	worse := pulseTrace(rng, 512)
	for i := range worse.Samples {
		// A uniform gain drift moves peak and RMS together, so 1.5x (the
		// spike limit) bounds how far gain can drift before rejection —
		// 1.4x is accepted but must already read as a sick channel.
		worse.Samples[i] *= 1.4
	}
	v := h.Check(worse)
	if v.Rejected {
		t.Fatalf("1.4x gain should still be accepted, got %+v", v)
	}
	if got := h.Confidence(v); got >= pristine {
		t.Fatalf("confidence %g did not degrade from pristine %g", got, pristine)
	}
}

func TestMonitorRejectsUnhealthyTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	golden := goldenSet(rng, 15, 512)
	fp, err := BuildFingerprint(golden, DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildChannelHealth(golden, DefaultHealthConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(fp, nil, HardenedOptions(h))
	if err != nil {
		t.Fatal(err)
	}
	flat := &trace.Trace{Dt: testDt, Samples: make([]float64, 512)}
	vs := []Verdict{ev.Eval(synthTrace(rng, 512, 0)), ev.Eval(flat), ev.Eval(synthTrace(rng, 512, 0))}
	if vs[0].Health.Rejected || vs[2].Health.Rejected {
		t.Fatal("healthy traces must pass the gate")
	}
	bad := vs[1]
	switch {
	case !bad.Health.Rejected:
		t.Fatal("flatline trace must be rejected")
	case bad.Confidence != 0:
		t.Fatalf("rejected confidence %g, want 0", bad.Confidence)
	case bad.Confirmed(), bad.Alarm():
		t.Fatal("a rejected trace must never raise the Trojan alarm")
	case bad.Time != (TimeVerdict{}):
		t.Fatal("detectors must be skipped for rejected traces")
	}
}

// driftedTrace shifts a clean synthetic trace by a slow gain/offset
// drift (index i of span) without any Trojan component.
func driftedTrace(rng *rand.Rand, n, i, span int) *trace.Trace {
	tr := synthTrace(rng, n, 0)
	g := 1 + 0.2*float64(i)/float64(span)
	off := 0.3 * float64(i) / float64(span)
	for k := range tr.Samples {
		tr.Samples[k] = tr.Samples[k]*g + off
	}
	return tr
}

func TestRebaselineTracksSlowDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	golden := goldenSet(rng, 30, 1024)
	fp, err := BuildFingerprint(golden, DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n, span = 120, 120
	run := func(opts MonitorOptions) (alarms int, offset []float64) {
		ev, err := NewEvaluator(fp, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if ev.Eval(driftedTrace(rng, 1024, i, span)).Confirmed() {
				alarms++
			}
		}
		if ev.rb != nil {
			offset = ev.rb.offset
		}
		return alarms, offset
	}
	naive, _ := run(MonitorOptions{})
	hardened, offset := run(MonitorOptions{
		Debounce:   DebounceConfig{M: 2, N: 5},
		Rebaseline: RebaselineConfig{Alpha: 0.1},
	})
	if offset == nil {
		t.Fatal("no quiet trace fed the re-baseliner")
	}
	if naive == 0 {
		t.Fatal("the drift stimulus is too weak to exercise the naive monitor")
	}
	if hardened >= naive {
		t.Fatalf("re-baselining did not help: hardened %d vs naive %d false alarms", hardened, naive)
	}
}

func TestRebaselineFreezesOnTrojanStep(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	golden := goldenSet(rng, 30, 1024)
	fp, err := BuildFingerprint(golden, DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(fp, nil, MonitorOptions{
		Debounce:   DebounceConfig{M: 2, N: 5},
		Rebaseline: RebaselineConfig{Alpha: 0.2}, // aggressive: absorb fast if unguarded
	})
	if err != nil {
		t.Fatal(err)
	}
	const quiet, active = 30, 60
	var vs []Verdict
	for i := 0; i < quiet; i++ {
		vs = append(vs, ev.Eval(synthTrace(rng, 1024, 0)))
	}
	// Trojan activates and stays on. An unguarded EWMA at alpha 0.2
	// would swallow the step within ~20 traces; the guard must keep the
	// alarm latched for the whole activation.
	for i := 0; i < active; i++ {
		vs = append(vs, ev.Eval(synthTrace(rng, 1024, 1.0)))
	}
	lateAlarms := 0
	for _, v := range vs[quiet+active/2:] {
		if v.Confirmed() {
			lateAlarms++
		}
	}
	tail := len(vs[quiet+active/2:])
	if lateAlarms < tail*9/10 {
		t.Fatalf("alarm decayed during activation: %d/%d late traces confirmed — baseline absorbed the Trojan", lateAlarms, tail)
	}
	// The frozen baseline must still be (near) zero: all adaptation
	// happened on the quiet prefix where scores sit at the centroid.
	var norm float64
	for _, v := range ev.rb.offset {
		norm += v * v
	}
	if norm = math.Sqrt(norm); norm > fp.Threshold {
		t.Fatalf("baseline offset norm %g exceeds threshold %g — drifted toward the Trojan", norm, fp.Threshold)
	}
}

func TestHardenedVerdictString(t *testing.T) {
	v := Verdict{
		Seq:        7,
		Health:     HealthVerdict{Rejected: true, Reason: "clipping"},
		Window:     WindowState{M: 2, N: 5, Alarms: 1},
		Confidence: 0,
	}
	s := v.String()
	if s == "" || v.Confirmed() {
		t.Fatalf("rejected verdict renders %q and must not confirm", s)
	}
	confirmed := Verdict{
		Time:       TimeVerdict{Alarm: true},
		Window:     WindowState{M: 2, N: 5, Alarms: 3, Confirmed: true},
		Confidence: 0.9,
	}
	if !confirmed.Confirmed() {
		t.Fatal("confirmed window must confirm")
	}
	pending := Verdict{
		Time:   TimeVerdict{Alarm: true},
		Window: WindowState{M: 2, N: 5, Alarms: 1},
	}
	if pending.Confirmed() {
		t.Fatal("1-of-5 window must not confirm yet")
	}
	if !pending.Alarm() {
		t.Fatal("raw alarm must survive debouncing in Alarm()")
	}
}
