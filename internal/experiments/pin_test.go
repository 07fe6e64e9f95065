package experiments

import (
	"math"
	"testing"

	"emtrust/internal/trojan"
)

// The fixed-seed pins below are the decision-identity gate for the
// planned spectral engine and the idle-chain replay path: detector
// booleans, spot counts, and flagged frequencies are exact, continuous
// metrics are pinned to a relative tolerance that absorbs last-ULP
// drift from the half-size real transform (Sqrt vs Hypot, fused
// magnitude) while still catching any real numerical change.

const pinRelTol = 1e-9

func pinClose(t *testing.T, name string, got, want float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %g, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want) > pinRelTol*math.Abs(want) {
		t.Errorf("%s = %.17g, want %.17g (rel Δ %.3g)", name, got, want,
			math.Abs(got-want)/math.Abs(want))
	}
}

func TestA2SpectrumPinned(t *testing.T) {
	res := fixture(t, a2Fixture)
	if !res.Detected {
		t.Fatal("A2 detection flipped")
	}
	if res.Spots != 5 {
		t.Fatalf("spot count = %d, want 5", res.Spots)
	}
	if res.PeakIncreaseHz != 24000000 {
		t.Fatalf("strongest spot at %g Hz, want 24 MHz", res.PeakIncreaseHz)
	}
	pinClose(t, "PeakIncrease", res.PeakIncrease, 3.923653457819487)
	pinClose(t, "ClockAmpOff", res.ClockAmpOff, 9.9145014932599708e-10)
	pinClose(t, "ClockAmpOn", res.ClockAmpOn, 8.4235448495267484e-10)
	pinClose(t, "HarmonicAmpOff", res.HarmonicAmpOff, 9.8273414888015467e-10)
	pinClose(t, "HarmonicAmpOn", res.HarmonicAmpOn, 4.8300592005960704e-09)
}

func TestFig6SpectraPinned(t *testing.T) {
	res := fixture(t, fig6SpectraFixture)
	want := map[trojan.Kind]struct {
		detected    bool
		spots       int
		strongestHz float64
	}{
		trojan.T1AMLeaker:       {true, 40, 19500000},
		trojan.T2LeakageCurrent: {true, 49, 24000000},
		trojan.T3CDMALeaker:     {false, 0, 0},
		trojan.T4PowerHog:       {true, 20, 24000000},
	}
	if len(res.Panels) != len(want) {
		t.Fatalf("%d panels, want %d", len(res.Panels), len(want))
	}
	for _, p := range res.Panels {
		w, ok := want[p.Trojan]
		if !ok {
			t.Errorf("unexpected panel for %v", p.Trojan)
			continue
		}
		if p.Detected != w.detected {
			t.Errorf("%v detection = %v, want %v", p.Trojan, p.Detected, w.detected)
		}
		if p.Spots != w.spots {
			t.Errorf("%v spot count = %d, want %d", p.Trojan, p.Spots, w.spots)
		}
		if p.StrongestHz != w.strongestHz {
			t.Errorf("%v strongest spot at %g Hz, want %g", p.Trojan, p.StrongestHz, w.strongestHz)
		}
	}
}
