package experiments

import (
	"strings"
	"testing"

	"emtrust/internal/trojan"
)

// TestDegradationAcceptance pins the three claims of the fault-injection
// study on the reduced trace budget: (a) the hardened monitor's false
// alarms stay strictly below the naive monitor's wherever the channel is
// degraded but still usable, (b) every Trojan is still detected through
// the moderately degraded channel, and (c) the guarded re-baseliner
// never absorbs a Trojan activation.
func TestDegradationAcceptance(t *testing.T) {
	res := fixture(t, degradationFixture)
	if len(res.Points) < 3 {
		t.Fatalf("sweep too small: %d points", len(res.Points))
	}
	var moderate *DegradationPoint
	for i := range res.Points {
		p := &res.Points[i]
		if p.Severity == res.ModerateSeverity {
			moderate = p
		}
		// (a) On a degraded-but-usable channel the hardening must pay for
		// itself: strictly fewer false alarms than the paper's monitor.
		if p.Severity > 0 && p.Rejected < 0.5 && p.FalseAlarmNaive > 0 {
			if p.FalseAlarmHardened >= p.FalseAlarmNaive {
				t.Errorf("severity %.1f: hardened FA %.0f%% not below naive %.0f%%",
					p.Severity, 100*p.FalseAlarmHardened, 100*p.FalseAlarmNaive)
			}
		}
		// A dead channel must be reported as dead, not as a Trojan.
		if p.Rejected > 0.9 && p.FalseAlarmHardened > 0.05 {
			t.Errorf("severity %.1f: %.0f%% rejected but hardened still false-alarms %.0f%%",
				p.Severity, 100*p.Rejected, 100*p.FalseAlarmHardened)
		}
	}
	if moderate == nil {
		t.Fatalf("no sweep point at the moderate severity %.1f", res.ModerateSeverity)
	}
	// (b) Through the moderately degraded channel, every digital Trojan
	// and the analog A2 must still be caught on most of their stream.
	for _, k := range trojan.Kinds() {
		if got := moderate.DetectionHardened[k]; got < 0.5 {
			t.Errorf("moderate severity: hardened %v detection %.0f%% below 50%%", k, 100*got)
		}
	}
	if moderate.A2Hardened < 0.5 {
		t.Errorf("moderate severity: hardened A2 detection %.0f%% below 50%%", 100*moderate.A2Hardened)
	}
	if moderate.FalseAlarmHardened >= moderate.FalseAlarmNaive {
		t.Errorf("moderate severity: hardened FA %.0f%% not below naive %.0f%%",
			100*moderate.FalseAlarmHardened, 100*moderate.FalseAlarmNaive)
	}
	// (c) After a long quiet prefix of adaptation, a Trojan that switches
	// on must stay alarmed — re-baselining must not absorb the step.
	if res.FreezePersistence < 0.75 {
		t.Errorf("freeze study: persistence %.0f%% — the re-baseliner absorbed the activation",
			100*res.FreezePersistence)
	}
	out := res.String()
	for _, want := range []string{"severity", "false+", "freeze study"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
