package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"emtrust/internal/dsp"
	"emtrust/internal/trace"
)

const testDt = 1e-7

// synthTrace builds a noisy two-tone trace; extra adds a third tone (the
// "Trojan" component) of the given amplitude.
func synthTrace(rng *rand.Rand, n int, extra float64) *trace.Trace {
	s := make([]float64, n)
	for i := range s {
		t := float64(i) * testDt
		s[i] = 1.0*math.Sin(2*math.Pi*1e6*t) + 0.4*math.Sin(2*math.Pi*2e6*t)
		s[i] += extra * math.Sin(2*math.Pi*3.3e6*t)
		s[i] += rng.NormFloat64() * 0.05
	}
	return &trace.Trace{Dt: testDt, Samples: s}
}

func goldenSet(rng *rand.Rand, count, n int) []*trace.Trace {
	out := make([]*trace.Trace, count)
	for i := range out {
		out[i] = synthTrace(rng, n, 0)
	}
	return out
}

func TestFeatureExtractor(t *testing.T) {
	ex := FeatureExtractor{Segments: 4}
	tr := &trace.Trace{Dt: 1, Samples: []float64{1, 1, 2, 2, 3, 3, 4, 4}}
	f := ex.Extract(tr)
	if len(f) != 4 {
		t.Fatalf("features = %v", f)
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if math.Abs(f[i]-want) > 1e-12 {
			t.Fatalf("segment %d = %g, want %g", i, f[i], want)
		}
	}
	// Default segments and degenerate inputs.
	if got := (FeatureExtractor{}).Extract(tr); len(got) != 32 {
		t.Fatalf("default segments = %d", len(got))
	}
	empty := (FeatureExtractor{Segments: 4}).Extract(&trace.Trace{Dt: 1})
	for _, v := range empty {
		if v != 0 {
			t.Fatal("empty trace must give zero features")
		}
	}
	// More segments than samples must not panic and must cover all.
	short := (FeatureExtractor{Segments: 8}).Extract(&trace.Trace{Dt: 1, Samples: []float64{5, 5}})
	if len(short) != 8 {
		t.Fatal("short trace feature length")
	}
}

func TestBuildFingerprintValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BuildFingerprint(goldenSet(rng, 1, 256), DefaultFingerprintConfig()); err == nil {
		t.Fatal("single golden trace must error")
	}
}

func TestFingerprintNoFalseAlarmsOnGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fp, err := BuildFingerprint(goldenSet(rng, 40, 1024), DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Held-out golden traces: distances should land at or below the
	// threshold almost always (the threshold is the max golden pairwise
	// distance; held-out data may rarely exceed it).
	alarms := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		if fp.Evaluate(synthTrace(rng, 1024, 0)).Alarm {
			alarms++
		}
	}
	if alarms > trials/10 {
		t.Fatalf("%d/%d false alarms on golden traces", alarms, trials)
	}
}

func TestFingerprintDetectsInjectedComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fp, err := BuildFingerprint(goldenSet(rng, 40, 1024), DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		v := fp.Evaluate(synthTrace(rng, 1024, 0.8))
		if v.Alarm {
			detected++
		}
		if v.Threshold != fp.Threshold {
			t.Fatal("verdict threshold mismatch")
		}
	}
	if detected < trials*9/10 {
		t.Fatalf("only %d/%d infected traces detected", detected, trials)
	}
}

// Distance must grow monotonically-ish with the Trojan component size.
func TestDistanceScalesWithActivity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fp, err := BuildFingerprint(goldenSet(rng, 30, 1024), DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := func(extra float64) float64 {
		sum := 0.0
		for i := 0; i < 10; i++ {
			sum += fp.Distance(synthTrace(rng, 1024, extra))
		}
		return sum / 10
	}
	small, large := mean(0.2), mean(1.5)
	if large <= small {
		t.Fatalf("distance did not grow with activity: %g vs %g", small, large)
	}
}

func TestCentroidDistanceSeparatesPopulations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fp, err := BuildFingerprint(goldenSet(rng, 30, 1024), DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	var g, tr []float64
	for i := 0; i < 20; i++ {
		g = append(g, fp.CentroidDistance(synthTrace(rng, 1024, 0)))
		tr = append(tr, fp.CentroidDistance(synthTrace(rng, 1024, 0.8)))
	}
	gm, tm := dsp.Mean(g), dsp.Mean(tr)
	if tm <= gm {
		t.Fatalf("infected centroid distance %g not above golden %g", tm, gm)
	}
}

func TestThresholdMarginScales(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	set := goldenSet(rng, 10, 512)
	cfg := DefaultFingerprintConfig()
	base, err := BuildFingerprint(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ThresholdMargin = 2
	wide, err := BuildFingerprint(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wide.Threshold-2*base.Threshold) > 1e-12*base.Threshold {
		t.Fatalf("margin not applied: %g vs %g", wide.Threshold, base.Threshold)
	}
}

func TestSpectralDetectorFindsNewSpot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sd, err := BuildSpectralDetector(goldenSet(rng, 12, 2048), DefaultSpectralConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Clean trace: no alarm.
	clean := sd.Evaluate(synthTrace(rng, 2048, 0))
	if clean.Alarm {
		t.Fatalf("false spectral alarm: %+v", clean.Spots)
	}
	// A new 3.3 MHz tone must be flagged as a NEW spot.
	v := sd.Evaluate(synthTrace(rng, 2048, 0.6))
	if !v.Alarm {
		t.Fatal("spectral detector missed an injected tone")
	}
	spot := v.StrongestSpot()
	if math.Abs(spot.Frequency-3.3e6) > 5*sd.DF {
		t.Fatalf("strongest spot at %g Hz, want ~3.3 MHz", spot.Frequency)
	}
	if !spot.New {
		t.Fatal("injected tone should be a new spot")
	}
}

func TestSpectralDetectorFindsAmplifiedSpot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sd, err := BuildSpectralDetector(goldenSet(rng, 12, 2048), DefaultSpectralConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Amplify an existing tone (2 MHz: golden amplitude 0.4 -> 1.0).
	s := make([]float64, 2048)
	for i := range s {
		tt := float64(i) * testDt
		s[i] = 1.0*math.Sin(2*math.Pi*1e6*tt) + 1.0*math.Sin(2*math.Pi*2e6*tt) + rng.NormFloat64()*0.05
	}
	v := sd.Evaluate(&trace.Trace{Dt: testDt, Samples: s})
	if !v.Alarm {
		t.Fatal("amplified spot missed")
	}
	spot := v.StrongestSpot()
	if math.Abs(spot.Frequency-2e6) > 5*sd.DF {
		t.Fatalf("strongest spot at %g Hz, want ~2 MHz", spot.Frequency)
	}
	if spot.New {
		t.Fatal("amplified existing tone must not be flagged as new")
	}
}

func TestSpectralDetectorValidation(t *testing.T) {
	if _, err := BuildSpectralDetector(nil, DefaultSpectralConfig()); err == nil {
		t.Fatal("empty golden set must error")
	}
	rng := rand.New(rand.NewSource(9))
	mixed := []*trace.Trace{synthTrace(rng, 1024, 0), synthTrace(rng, 4096, 0)}
	if _, err := BuildSpectralDetector(mixed, DefaultSpectralConfig()); err == nil {
		t.Fatal("mismatched trace lengths must error")
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{Seq: 3, Time: TimeVerdict{Distance: 1, Threshold: 0.5, Alarm: true}}
	if v.String() == "" || !v.Alarm() {
		t.Fatal("verdict rendering broken")
	}
	clean := Verdict{}
	if clean.Alarm() {
		t.Fatal("zero verdict must be clean")
	}
}

func TestMonitorPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	golden := goldenSet(rng, 20, 1024)
	fp, err := BuildFingerprint(golden, DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	sd, err := BuildSpectralDetector(golden, DefaultSpectralConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(fp, sd, MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const nClean, nBad = 8, 8
	var verdicts []Verdict
	for i := 0; i < nClean; i++ {
		verdicts = append(verdicts, ev.Eval(synthTrace(rng, 1024, 0)))
	}
	for i := 0; i < nBad; i++ {
		verdicts = append(verdicts, ev.Eval(synthTrace(rng, 1024, 1.0)))
	}
	for i, v := range verdicts {
		if v.Seq != i {
			t.Fatalf("sequence broken at %d", i)
		}
	}
	badAlarms := 0
	for _, v := range verdicts[nClean:] {
		if v.Alarm() {
			badAlarms++
		}
	}
	if badAlarms < nBad-1 {
		t.Fatalf("monitor missed infected traces: %d/%d", badAlarms, nBad)
	}
}

func TestMonitorNeedsADetector(t *testing.T) {
	if _, err := NewEvaluator(nil, nil, MonitorOptions{}); err == nil {
		t.Fatal("nil detectors must error")
	}
}

func TestMonitorTimeOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fp, err := BuildFingerprint(goldenSet(rng, 10, 512), DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(fp, nil, MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := ev.Eval(synthTrace(rng, 512, 0))
	if v.Spectral.Alarm || len(v.Spectral.Spots) != 0 {
		t.Fatal("spectral verdict should be empty without a detector")
	}
}

// A spectral-only hit must alarm and (without debouncing) confirm, even
// though the time-domain detector stayed quiet.
func TestVerdictSpectralOnlyAlarm(t *testing.T) {
	v := Verdict{
		Time:     TimeVerdict{Distance: 0.1, Threshold: 0.5},
		Spectral: SpectralVerdict{Alarm: true, Spots: []Spot{{}}},
	}
	if !v.Alarm() || !v.Confirmed() {
		t.Fatal("spectral-only hit must raise a confirmed alarm")
	}
	if !strings.Contains(v.String(), "ALARM") || !strings.Contains(v.String(), "spots=1") {
		t.Fatalf("rendering %q", v.String())
	}
}

// Each verdict status has its own rendering, and a health-rejected or
// unconfirmed-window alarm never confirms.
func TestVerdictStatusEdges(t *testing.T) {
	rejected := Verdict{
		Time:   TimeVerdict{Alarm: true},
		Health: HealthVerdict{Rejected: true, Reason: "flatline"},
	}
	if rejected.Confirmed() {
		t.Fatal("health-rejected trace must never confirm")
	}
	if !strings.Contains(rejected.String(), "REJECT(flatline)") {
		t.Fatalf("rendering %q", rejected.String())
	}

	pending := Verdict{
		Time:       TimeVerdict{Alarm: true},
		Window:     WindowState{M: 3, N: 5, Alarms: 1},
		Confidence: 0.9,
	}
	if !pending.Alarm() || pending.Confirmed() {
		t.Fatal("raw hit below the debounce threshold must not confirm")
	}
	s := pending.String()
	if !strings.Contains(s, "alarm?") || !strings.Contains(s, "window=1/5") {
		t.Fatalf("rendering %q", s)
	}

	confirmed := pending
	confirmed.Window.Alarms = 3
	confirmed.Window.Confirmed = true
	if !confirmed.Confirmed() || !strings.Contains(confirmed.String(), "ALARM") {
		t.Fatalf("rendering %q", confirmed.String())
	}

	clean := Verdict{Window: WindowState{M: 3, N: 5}}
	if clean.Alarm() || clean.Confirmed() || !strings.Contains(clean.String(), "ok") {
		t.Fatalf("rendering %q", clean.String())
	}
}
