package experiments

import (
	"strings"
	"testing"
)

// TestLocalizationAcceptance pins the sensor-array claims: the 4×4 array
// detects all four digital Trojans plus A2 with no golden model, and
// localizes at least three threats to the correct or an adjacent tile;
// the paper's single whole-die coil localizes none of them.
func TestLocalizationAcceptance(t *testing.T) {
	res := fixture(t, localizationFixture)
	four := res.Grid(4)
	if four == nil {
		t.Fatal("no 4x4 entry in the sweep")
	}
	if len(four.Threats) != 5 {
		t.Fatalf("4x4 scored %d threats, want 5 (T1..T4 + A2)", len(four.Threats))
	}
	for _, thr := range four.Threats {
		if thr.Detected < 0.5 {
			t.Errorf("4x4: %s detected on only %.0f%% of frames", thr.Name, 100*thr.Detected)
		}
	}
	if four.Localized < 3 {
		t.Errorf("4x4 localized %d/5 threats, want >= 3:", four.Localized)
		for _, thr := range four.Threats {
			t.Errorf("  %s: detected %.0f%% pred cell %d true cell %d tile dist %d",
				thr.Name, 100*thr.Detected, thr.PredCell, thr.TrueCell, thr.TileDist)
		}
	}

	single := res.Grid(1)
	if single == nil {
		t.Fatal("no whole-die entry in the sweep")
	}
	if single.Localized != 0 {
		t.Errorf("whole-die coil localized %d threats; it has no spatial resolution", single.Localized)
	}

	// Resolution should not degrade detection: the 8×8 array still
	// catches every threat.
	if eight := res.Grid(8); eight != nil && eight.Detected < 5 {
		t.Errorf("8x8 detected only %d/5 threats", eight.Detected)
	}

	// The channel-budget sweep models the mux latency honestly: fewer
	// channels cost proportionally more capture windows per frame.
	if len(res.Budget) < 2 {
		t.Fatalf("budget sweep has %d points", len(res.Budget))
	}
	for _, g := range res.Budget {
		want := (16 + g.Channels - 1) / g.Channels
		if g.Windows != want {
			t.Errorf("%d channels: %d windows per frame, want %d", g.Channels, g.Windows, want)
		}
		if g.Detected < 4 {
			t.Errorf("%d channels: detected %d/5 threats", g.Channels, g.Detected)
		}
	}

	out := res.String()
	for _, want := range []string{"Golden-model-free", "whole-die", "4x4 per-threat", "channel budget"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
