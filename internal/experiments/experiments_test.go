package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"emtrust/internal/trojan"
)

// The experiment tests assert the paper's qualitative findings — who
// wins, by roughly what factor, and where the hard cases are — on a
// reduced trace budget so the whole file runs in well under a minute.

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.GoldenTraces = 40
	cfg.TestTraces = 40
	return cfg
}

func TestTable1MatchesPaperShape(t *testing.T) {
	res := fixture(t, table1Fixture)
	// Same regime as the paper's 33083-gate AES.
	if res.AESGateCount < 15000 || res.AESGateCount > 60000 {
		t.Fatalf("AES gates = %d", res.AESGateCount)
	}
	byName := make(map[string]Table1Row)
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	// Every percentage within a third of the published one.
	for name, row := range byName {
		lo, hi := row.PaperPct*0.66, row.PaperPct*1.5
		if row.Percentage < lo || row.Percentage > hi {
			t.Errorf("%s share %.3f%% outside [%.3f, %.3f]", name, row.Percentage, lo, hi)
		}
	}
	// Ordering: T3 smallest, T2 ~ T4 largest.
	if !(byName["T3"].Percentage < byName["T1"].Percentage &&
		byName["T1"].Percentage < byName["T2"].Percentage) {
		t.Fatalf("Table I ordering broken: %+v", res.Rows)
	}
	if byName["A2"].GateCount != -1 {
		t.Fatal("A2 gate count must be N/A")
	}
	out := res.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "N/A") {
		t.Fatalf("rendering broken:\n%s", out)
	}
}

func TestSNRSimulationMatchesPaper(t *testing.T) {
	res := fixture(t, snrSimFixture)
	if res.SensorSNRdB < res.PaperSensorSNRdB-4 || res.SensorSNRdB > res.PaperSensorSNRdB+4 {
		t.Errorf("sensor SNR %.2f dB, paper %.2f", res.SensorSNRdB, res.PaperSensorSNRdB)
	}
	if res.ProbeSNRdB < res.PaperProbeSNRdB-4 || res.ProbeSNRdB > res.PaperProbeSNRdB+4 {
		t.Errorf("probe SNR %.2f dB, paper %.2f", res.ProbeSNRdB, res.PaperProbeSNRdB)
	}
	if res.GapdB() < 8 {
		t.Errorf("sensor advantage %.2f dB too small", res.GapdB())
	}
	if !strings.Contains(res.String(), "simulation") {
		t.Error("rendering broken")
	}
}

func TestSNRMeasuredMatchesPaper(t *testing.T) {
	res := fixture(t, snrMeasuredFixture)
	if res.SensorSNRdB < 26 || res.SensorSNRdB > 35 {
		t.Errorf("measured sensor SNR %.2f dB outside paper regime (30.55)", res.SensorSNRdB)
	}
	if res.ProbeSNRdB < 10 || res.ProbeSNRdB > 18 {
		t.Errorf("measured probe SNR %.2f dB outside paper regime (13.87)", res.ProbeSNRdB)
	}
	// The fabricated probe must read worse than its simulation, the
	// sensor about the same (the paper's two key observations).
	sim := fixture(t, snrSimFixture)
	if res.ProbeSNRdB >= sim.ProbeSNRdB {
		t.Errorf("measured probe SNR %.2f should be below simulated %.2f", res.ProbeSNRdB, sim.ProbeSNRdB)
	}
	if diff := res.SensorSNRdB - sim.SensorSNRdB; diff > 3 || diff < -3 {
		t.Errorf("sensor SNR moved %.2f dB between modes; paper keeps it stable", diff)
	}
}

func TestEuclideanSimulationShape(t *testing.T) {
	res, err := EuclideanSimulation(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[trojan.Kind]EuclideanRow)
	for _, row := range res.Rows {
		rows[row.Trojan] = row
	}
	// T3 is by far the smallest distance; the other three are
	// distinguishable from golden (relative well above 1).
	for _, k := range []trojan.Kind{trojan.T1AMLeaker, trojan.T2LeakageCurrent, trojan.T4PowerHog} {
		if rows[k].Relative < 2.5 {
			t.Errorf("%v relative %.2f too close to golden", k, rows[k].Relative)
		}
		if rows[k].Relative < 1.8*rows[trojan.T3CDMALeaker].Relative {
			t.Errorf("%v (%.2f) not well above T3 (%.2f)", k, rows[k].Relative, rows[trojan.T3CDMALeaker].Relative)
		}
	}
	// Even T3 shifts the mean distance visibly in simulation.
	if rows[trojan.T3CDMALeaker].Relative < 1.2 {
		t.Errorf("T3 relative %.2f should still be distinguishable in simulation", rows[trojan.T3CDMALeaker].Relative)
	}
	// At least the loud Trojans must cross the Eq. (1) threshold.
	if rows[trojan.T1AMLeaker].DetectionRate < 0.9 || rows[trojan.T2LeakageCurrent].DetectionRate < 0.9 {
		t.Errorf("T1/T2 detection rates too low: %+v", rows)
	}
	if !strings.Contains(res.String(), "Euclidean") {
		t.Error("rendering broken")
	}
}

func TestA2SpectrumShape(t *testing.T) {
	res := fixture(t, a2Fixture)
	if !res.Detected {
		t.Fatal("A2 triggering must raise a spectral alarm")
	}
	// The activation raises amplitude at the harmonic of the clock (the
	// trigger flips twice per cycle).
	if res.HarmonicAmpOn < 1.4*res.HarmonicAmpOff {
		t.Errorf("harmonic amplitude %.3g not raised over dormant %.3g", res.HarmonicAmpOn, res.HarmonicAmpOff)
	}
	if res.PeakIncrease < 1.4 {
		t.Errorf("strongest spot increase %.2fx too small", res.PeakIncrease)
	}
	if !strings.Contains(res.String(), "Figure 4") {
		t.Error("rendering broken")
	}
}

func TestFig6HistogramsSensorBeatsProbe(t *testing.T) {
	probe := fixture(t, fig6ProbeFixture)
	sensor := fixture(t, fig6SensorFixture)
	if probe.Channel == sensor.Channel {
		t.Fatal("channel labels broken")
	}
	pPanels := make(map[trojan.Kind]HistPanel)
	for _, p := range probe.Panels {
		pPanels[p.Trojan] = p
	}
	for _, s := range sensor.Panels {
		p := pPanels[s.Trojan]
		// The sensor separates populations better than the probe for
		// every Trojan (lower overlap).
		if s.Overlap >= p.Overlap {
			t.Errorf("%v: sensor overlap %.2f not below probe %.2f", s.Trojan, s.Overlap, p.Overlap)
		}
		// Probe populations stay heavily overlapped (Fig 6(a)-(d)).
		if p.Overlap < 0.3 {
			t.Errorf("%v: probe separated the populations (overlap %.2f); the paper's probe cannot", s.Trojan, p.Overlap)
		}
		// Sensor separates the three loud Trojans almost completely.
		if s.Trojan != trojan.T3CDMALeaker && s.Overlap > 0.15 {
			t.Errorf("%v: sensor overlap %.2f too high", s.Trojan, s.Overlap)
		}
		// T3 stays the hardest: overlapping but with a shifted peak.
		if s.Trojan == trojan.T3CDMALeaker && s.Overlap > 0.75 {
			t.Errorf("T3 sensor overlap %.2f: not even the peak shift survived", s.Overlap)
		}
	}
	if !strings.Contains(probe.String(), "external probe") {
		t.Error("rendering broken")
	}
}

func TestFig6SpectraShape(t *testing.T) {
	res := fixture(t, fig6SpectraFixture)
	panels := make(map[trojan.Kind]SpectrumPanel)
	for _, p := range res.Panels {
		panels[p.Trojan] = p
	}
	// T1, T2, T4 detected; T3 not (Fig 6(k): "the frequency spots are
	// not distinguished clearly because of the extreme low overhead").
	for _, k := range []trojan.Kind{trojan.T1AMLeaker, trojan.T2LeakageCurrent, trojan.T4PowerHog} {
		if !panels[k].Detected {
			t.Errorf("%v not detected spectrally", k)
		}
	}
	if panels[trojan.T3CDMALeaker].Detected {
		t.Error("T3 should evade the spectral detector (raw-data analysis)")
	}
	// T1 adds energy below the clock (the 750 kHz AM carrier region).
	if panels[trojan.T1AMLeaker].LowBandExcess <= 0 {
		t.Errorf("T1 low-band excess %.3g not positive", panels[trojan.T1AMLeaker].LowBandExcess)
	}
	// T2 and T4 amplify the clock-band spots.
	for _, k := range []trojan.Kind{trojan.T2LeakageCurrent, trojan.T4PowerHog} {
		if panels[k].ClockBandExcess <= 0 {
			t.Errorf("%v clock-band excess %.3g not positive", k, panels[k].ClockBandExcess)
		}
	}
	if !strings.Contains(res.String(), "spectra") {
		t.Error("rendering broken")
	}
}

func TestLayoutReport(t *testing.T) {
	res, err := LayoutReport(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.DieWidth <= 0 || res.SpiralArea <= 0 {
		t.Fatal("degenerate layout report")
	}
	for _, region := range []string{"aes", "trojan1", "trojan2", "trojan3", "trojan4"} {
		if res.Regions[region] == 0 {
			t.Errorf("region %s missing from report", region)
		}
	}
	out := res.String()
	if !strings.Contains(out, "spiral") || !strings.Contains(out, "aes") {
		t.Error("rendering broken")
	}
}

func TestConfigScaled(t *testing.T) {
	cfg := DefaultConfig()
	big, err := cfg.Scaled(2)
	if err != nil || big.GoldenTraces != 2*cfg.GoldenTraces || big.TestTraces != 2*cfg.TestTraces {
		t.Fatalf("Scaled broken (err %v)", err)
	}
	tiny, err := cfg.Scaled(0)
	if err != nil || tiny.GoldenTraces < 2 {
		t.Fatalf("Scaled must clamp to 2 (err %v)", err)
	}
	// Counts an int cannot hold (or that are no number at all) fail
	// instead of converting to an implementation-dependent int.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e17, 1e300} {
		if _, err := cfg.Scaled(f); err == nil {
			t.Errorf("Scaled(%g) did not fail", f)
		}
	}
}

func TestCoverageEMBeatsRON(t *testing.T) {
	res, err := Coverage(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Oscillators == 0 {
		t.Fatal("no oscillators placed")
	}
	rows := make(map[string]CoverageRow)
	for _, row := range res.Rows {
		rows[row.Threat] = row
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 threats, got %v", rows)
	}
	// The EM framework catches the loud Trojans and the analog one.
	for _, name := range []string{"T1", "T2", "T4", "A2"} {
		if rows[name].EMRate < 0.8 {
			t.Errorf("EM framework missed %s (rate %.2f)", name, rows[name].EMRate)
		}
	}
	// The RON's coverage is low: it must miss at least three of the five
	// threats that the EM framework handles, and it must never catch a
	// threat the EM framework misses.
	missed := 0
	for name, row := range rows {
		if row.RONRate < 0.5 {
			missed++
		}
		if row.RONRate > row.EMRate+0.25 {
			t.Errorf("RON out-detected EM on %s: %.2f vs %.2f", name, row.RONRate, row.EMRate)
		}
	}
	if missed < 3 {
		t.Fatalf("RON missed only %d threats; the low-coverage critique did not reproduce", missed)
	}
	if !strings.Contains(res.String(), "RON") {
		t.Error("rendering broken")
	}
}

func TestLocalizeFindsEveryTrojan(t *testing.T) {
	res, err := Localize(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	correct := 0
	for _, row := range res.Rows {
		if row.Correct {
			correct++
		}
		if row.Increase < 0 {
			t.Errorf("%v: negative winning increase %.2f", row.Trojan, row.Increase)
		}
	}
	// The loud Trojans must localize; T3 is allowed to miss.
	if correct < 3 {
		t.Fatalf("only %d/4 Trojans localized", correct)
	}
	for _, row := range res.Rows {
		if row.Trojan != trojan.T3CDMALeaker && !row.Correct {
			t.Errorf("%v mislocalized: expected %s, predicted %s", row.Trojan, row.Expected, row.Predicted)
		}
	}
	if !strings.Contains(res.String(), "localization") {
		t.Error("rendering broken")
	}
}

func TestVariationSelfReferenceWins(t *testing.T) {
	res, err := Variation(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	goldenRef, selfRef := res.Rows[0], res.Rows[1]
	// A golden-chip fingerprint false-alarms on a different healthy die.
	if goldenRef.FalseAlarmRate < 0.5 {
		t.Errorf("golden-chip reference false-alarm rate %.2f too low; process variation should break it", goldenRef.FalseAlarmRate)
	}
	// The paper's self-referenced fingerprint stays clean and effective.
	if selfRef.FalseAlarmRate > 0.1 {
		t.Errorf("self-referenced false-alarm rate %.2f too high", selfRef.FalseAlarmRate)
	}
	if selfRef.DetectionRate < 0.9 {
		t.Errorf("self-referenced detection rate %.2f too low", selfRef.DetectionRate)
	}
	if !strings.Contains(res.String(), "variation") {
		t.Error("rendering broken")
	}
}

func TestRobustnessDegradesGracefully(t *testing.T) {
	cfg := testConfig()
	cfg.TestTraces = 25
	res, err := Robustness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		// Eq. (1) keeps false alarms controlled at every noise level.
		if p.FalseAlarmRate > 0.15 {
			t.Errorf("noise %gx: false-alarm rate %.2f", p.NoiseScale, p.FalseAlarmRate)
		}
	}
	// At calibrated noise (index 1) the loud Trojans are caught...
	first := res.Points[1]
	if first.Detection[trojan.T1AMLeaker] < 0.9 || first.Detection[trojan.T2LeakageCurrent] < 0.9 {
		t.Errorf("baseline detection too low: %+v", first.Detection)
	}
	// ...and detection must not improve as noise grows 16x.
	last := res.Points[len(res.Points)-1]
	for _, k := range trojan.Kinds() {
		if last.Detection[k] > first.Detection[k]+0.1 {
			t.Errorf("%v: detection grew with noise (%.2f -> %.2f)", k, first.Detection[k], last.Detection[k])
		}
	}
}

func TestFaultsStudyShape(t *testing.T) {
	cfg := testConfig()
	cfg.TestTraces = 30
	res, err := Faults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults < 8 {
		t.Fatalf("faults = %d", res.Faults)
	}
	// Single stuck-at faults in AES logic almost always corrupt the
	// ciphertext for a fixed vector.
	if res.FunctionallyVisible < res.Faults*3/4 {
		t.Errorf("only %d/%d faults functionally visible", res.FunctionallyVisible, res.Faults)
	}
	// The EM fingerprint catches at most a minority of logic defects
	// (the honest negative), and never fewer than zero by construction.
	if res.EMVisible > res.FunctionallyVisible {
		t.Errorf("EM (%d) should not beat functional test (%d) on logic defects", res.EMVisible, res.FunctionallyVisible)
	}
	if res.EitherVisible < res.FunctionallyVisible {
		t.Error("either-count lost faults")
	}
	if !strings.Contains(res.String(), "Stuck-at") {
		t.Error("rendering broken")
	}
}

func TestWriteHTMLReport(t *testing.T) {
	campaign := fixture(t, campaignFixture)
	results := []fmt.Stringer{
		fixture(t, table1Fixture),
		fixture(t, snrSimFixture),
		fixture(t, snrMeasuredFixture),
		fixture(t, a2Fixture),
		fixture(t, fig6ProbeFixture),
		fixture(t, fig6SensorFixture),
		fixture(t, degradationFixture),
		fixture(t, localizationFixture),
		fixture(t, fleetFixture),
		campaign,
	}
	// One heading per result, in argument order.
	headings := []string{
		"Table I — Trojan sizes",
		"SNR — simulation mode",
		"SNR — measurement mode",
		"Figure 4 — A2 Trojan in the frequency domain",
		"Figure 6(a)-(d) — external probe",
		"Figure 6(e)-(h) — on-chip sensor",
		"Degradation — acquisition-chain faults (extension)",
		"Sensor array — golden-model-free localization (extension)",
		"Fleet monitoring — population-scale trust evaluation (extension)",
		fmt.Sprintf("Generated Trojan campaign — %d members (extension)", campaign.Members),
	}
	var buf bytes.Buffer
	if err := WriteHTMLReport(&buf, results...); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "Table I", "on-chip sensor", "Figure 6", "Figure 4",
		"Sensor array", "whole-die coil", "<svg", "</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if got := strings.Count(out, "<h2>"); got != len(headings) {
		t.Errorf("report has %d section headings, want %d", got, len(headings))
	}
	at := 0
	for _, h := range headings {
		i := strings.Index(out[at:], "<h2>"+h+"</h2>")
		if i < 0 {
			t.Errorf("report missing heading %q after byte %d", h, at)
			continue
		}
		at += i + len(h)
	}
	// The localization section contributes one heatmap per threat on top
	// of the figure charts.
	if got := strings.Count(out, "<svg"); got < 14 {
		t.Fatalf("only %d charts rendered", got)
	}

	// Results that own no section add nothing to the page.
	withBare := append([]fmt.Stringer{&EuclideanResult{}}, results...)
	withBare = append(withBare, &SpectraResult{})
	var bare bytes.Buffer
	if err := WriteHTMLReport(&bare, withBare...); err != nil {
		t.Fatal(err)
	}
	if bare.String() != out {
		t.Error("a result without a page section changed the report")
	}
}
