package fleet

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The pin fixture freezes the fleet's observable behavior bit-for-bit
// at a fixed seed: the per-die calibration scales, every monitored
// round's residual z and time-domain distance (as raw float64 bits),
// the health-reject stream, and the final service-level alarm list.
// Any hot-path rewrite (buffer reuse, loop fusion, batching) must
// reproduce this file exactly — floating-point identity, not tolerance.
// Regenerate deliberately with FLEET_PIN_WRITE=1 when behavior is
// *meant* to change, and say so in the commit.

const pinPath = "testdata/pin.json"

type pinRound struct {
	Z        uint64 `json:"z"`
	Distance uint64 `json:"distance"`
	Rejected bool   `json:"rejected"`
}

type pinDie struct {
	ID          int        `json:"id"`
	Infected    bool       `json:"infected"`
	Flatlined   bool       `json:"flatlined"`
	Med         uint64     `json:"med"`
	Sigma       uint64     `json:"sigma"`
	MedR        uint64     `json:"med_r"`
	SigmaR      uint64     `json:"sigma_r"`
	Quarantined bool       `json:"quarantined"`
	Rounds      []pinRound `json:"rounds"`
}

type pinAlarm struct {
	Die       int    `json:"die"`
	Score     uint64 `json:"score"`
	P         uint64 `json:"p"`
	Verdicts  int    `json:"verdicts"`
	Confirmed int    `json:"confirmed"`
	EWMA      uint64 `json:"ewma"`
}

type pinFile struct {
	Dies        []pinDie   `json:"dies"`
	RejectDies  []pinDie   `json:"reject_dies"`
	Alarms      []pinAlarm `json:"alarms"`
	Verdicts    uint64     `json:"verdicts"`
	Rejected    uint64     `json:"rejected"`
	Confirmed   uint64     `json:"confirmed"`
	Quarantined int        `json:"quarantined"`
}

// tickStream replays rounds on every die of a fresh fleet built from
// cfg, single-threaded in die order, so every recorded bit is
// schedule-independent.
func tickStream(t *testing.T, cfg Config) []pinDie {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []pinDie
	for _, d := range s.dies {
		pd := pinDie{
			ID:        d.ID,
			Infected:  d.Infected,
			Flatlined: d.Flatlined,
			Med:       math.Float64bits(d.med),
			Sigma:     math.Float64bits(d.sigma),
			MedR:      math.Float64bits(d.medR),
			SigmaR:    math.Float64bits(d.sigmaR),
		}
		for round := 0; round < cfg.Rounds; round++ {
			v := d.tick(round)
			pd.Rounds = append(pd.Rounds, pinRound{
				Z:        math.Float64bits(v.z),
				Distance: math.Float64bits(v.distance),
				Rejected: v.rejected,
			})
		}
		pd.Quarantined = d.quarantined.Load()
		out = append(out, pd)
	}
	return out
}

// pinConfig exercises the full hot path: trimmed-mean averaging
// (TickAverages >= 4), severity-2 degradation (bursts, clipping,
// retries), infected dies activating mid-run, and a flatline draw.
func pinConfig() Config {
	cfg := DefaultConfig()
	cfg.Dies = 24
	cfg.Shards = 3
	cfg.Seed = 13
	cfg.Prevalence = 0.2
	cfg.Severity = 2
	cfg.FlatlineRate = 0.15
	cfg.CaptureCycles = 8
	cfg.GoldenTraces = 6
	cfg.NullTraces = 8
	cfg.TickAverages = 5
	cfg.ActivationRound = 5
	cfg.Rounds = 18
	cfg.QueueSize = 1 << 14 // nothing sheds: the stream is deterministic
	cfg.MinSamples = 4
	cfg.QuarantineAfter = 8
	return cfg
}

// pinRejectConfig is a small, violently degraded fleet that pins the
// paths the main config rarely hits: health rejections, the bounded
// retry re-acquisition, and the plain-mean combine (TickAverages < 4).
func pinRejectConfig() Config {
	cfg := pinConfig()
	cfg.Dies = 8
	cfg.Shards = 2
	cfg.Severity = 4
	cfg.FlatlineRate = 0.3
	cfg.DriftSpan = 40
	cfg.TickAverages = 2
	cfg.Rounds = 12
	return cfg
}

func capturePin(t *testing.T) pinFile {
	t.Helper()
	cfg := pinConfig()

	out := pinFile{
		Dies:       tickStream(t, cfg),
		RejectDies: tickStream(t, pinRejectConfig()),
	}

	// Part two: a full service run on a fresh fleet — shards, queue,
	// aggregator, ranking. The queue is oversized so nothing is shed and
	// the final statistics are identical across schedules.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s2.Wait()
	out.Verdicts = st.Verdicts
	out.Rejected = st.Rejected
	out.Confirmed = st.Confirmed
	out.Quarantined = st.Quarantined
	for _, a := range s2.Alarms() {
		out.Alarms = append(out.Alarms, pinAlarm{
			Die:       a.Die,
			Score:     math.Float64bits(a.Score),
			P:         math.Float64bits(a.P),
			Verdicts:  a.Verdicts,
			Confirmed: a.Confirmed,
			EWMA:      math.Float64bits(a.EWMA),
		})
	}
	return out
}

func TestFleetPinnedBehavior(t *testing.T) {
	got := capturePin(t)
	if os.Getenv("FLEET_PIN_WRITE") != "" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(pinPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", pinPath)
		return
	}
	data, err := os.ReadFile(pinPath)
	if err != nil {
		t.Fatalf("missing pin fixture (regenerate with FLEET_PIN_WRITE=1): %v", err)
	}
	var want pinFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	comparePinDies(t, "main", got.Dies, want.Dies)
	comparePinDies(t, "reject", got.RejectDies, want.RejectDies)
	if got.Verdicts != want.Verdicts || got.Rejected != want.Rejected ||
		got.Confirmed != want.Confirmed || got.Quarantined != want.Quarantined {
		t.Errorf("service counters drifted: got %d/%d/%d/%d, want %d/%d/%d/%d",
			got.Verdicts, got.Rejected, got.Confirmed, got.Quarantined,
			want.Verdicts, want.Rejected, want.Confirmed, want.Quarantined)
	}
	if len(got.Alarms) != len(want.Alarms) {
		t.Fatalf("alarm list length %d, want %d (got %+v)", len(got.Alarms), len(want.Alarms), got.Alarms)
	}
	for i, wa := range want.Alarms {
		if got.Alarms[i] != wa {
			t.Errorf("alarm %d not bit-identical: got %+v, want %+v", i, got.Alarms[i], wa)
		}
	}
}

func comparePinDies(t *testing.T, label string, got, want []pinDie) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s die count %d, want %d", label, len(got), len(want))
	}
	for i, wd := range want {
		gd := got[i]
		if gd.Infected != wd.Infected || gd.Flatlined != wd.Flatlined {
			t.Errorf("%s die %d identity drifted: got inf=%v flat=%v, want inf=%v flat=%v",
				label, wd.ID, gd.Infected, gd.Flatlined, wd.Infected, wd.Flatlined)
		}
		if gd.Med != wd.Med || gd.Sigma != wd.Sigma || gd.MedR != wd.MedR || gd.SigmaR != wd.SigmaR {
			t.Errorf("%s die %d null calibration not bit-identical", label, wd.ID)
		}
		if gd.Quarantined != wd.Quarantined {
			t.Errorf("%s die %d quarantine = %v, want %v", label, wd.ID, gd.Quarantined, wd.Quarantined)
		}
		if len(gd.Rounds) != len(wd.Rounds) {
			t.Fatalf("%s die %d has %d rounds, want %d", label, wd.ID, len(gd.Rounds), len(wd.Rounds))
		}
		for r, wr := range wd.Rounds {
			if gr := gd.Rounds[r]; gr != wr {
				t.Errorf("%s die %d round %d verdict not bit-identical: z %x vs %x, dist %x vs %x, rej %v vs %v",
					label, wd.ID, r, gr.Z, wr.Z, gr.Distance, wr.Distance, gr.Rejected, wr.Rejected)
			}
		}
	}
}
