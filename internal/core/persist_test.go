package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestFingerprintSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	golden := goldenSet(rng, 25, 1024)
	fp, err := BuildFingerprint(golden, DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFingerprint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Threshold != fp.Threshold {
		t.Fatalf("threshold %g vs %g", loaded.Threshold, fp.Threshold)
	}
	// Verdicts must be identical on clean and infected traces.
	for _, extra := range []float64{0, 0.8} {
		tr := synthTrace(rng, 1024, extra)
		a := fp.Evaluate(tr)
		b := loaded.Evaluate(tr)
		if a.Alarm != b.Alarm || a.Distance != b.Distance {
			t.Fatalf("verdicts diverge after reload: %+v vs %+v", a, b)
		}
	}
}

func TestSpectralSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	golden := goldenSet(rng, 12, 2048)
	sd, err := BuildSpectralDetector(golden, DefaultSpectralConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sd.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpectralDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []float64{0, 0.6} {
		tr := synthTrace(rng, 2048, extra)
		a := sd.Evaluate(tr)
		b := loaded.Evaluate(tr)
		if a.Alarm != b.Alarm || len(a.Spots) != len(b.Spots) {
			t.Fatalf("spectral verdicts diverge: %+v vs %+v", a, b)
		}
	}
}

func TestLoadFingerprintRejectsGarbage(t *testing.T) {
	if _, err := LoadFingerprint(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage must error")
	}
	if _, err := LoadFingerprint(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("wrong version must error")
	}
	if _, err := LoadFingerprint(strings.NewReader(`{"version":1}`)); err == nil {
		t.Fatal("incomplete file must error")
	}
	if _, err := LoadFingerprint(strings.NewReader(
		`{"version":1,"mean":[1,2],"components":[[1]],"golden_scores":[[1]]}`)); err == nil {
		t.Fatal("ragged components must error")
	}
	if _, err := LoadFingerprint(strings.NewReader(
		`{"version":1,"mean":[1],"components":[[1]],"golden_scores":[[1],[1,2]]}`)); err == nil {
		t.Fatal("ragged golden scores must error")
	}
}

func TestLoadSpectralRejectsGarbage(t *testing.T) {
	if _, err := LoadSpectralDetector(strings.NewReader("{")); err == nil {
		t.Fatal("garbage must error")
	}
	if _, err := LoadSpectralDetector(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("wrong version must error")
	}
	if _, err := LoadSpectralDetector(strings.NewReader(`{"version":1}`)); err == nil {
		t.Fatal("incomplete file must error")
	}
}

func TestMonitorWithLoadedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	golden := goldenSet(rng, 15, 1024)
	fp, err := BuildFingerprint(golden, DefaultFingerprintConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFingerprint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(loaded, nil, MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Eval(synthTrace(rng, 1024, 1.0)).Alarm() {
		t.Fatal("reloaded monitor missed an infected trace")
	}
}
