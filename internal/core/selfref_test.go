package core

import (
	"math/rand"
	"testing"
)

// Baseline returns a copy of the current per-sensor rolling baseline.
func (d *SelfReference) Baseline() []float64 {
	out := make([]float64, len(d.base))
	copy(out, d.base)
	return out
}

// grid3x3 returns the 8-connected adjacency of a 3x3 sensor grid.
func grid3x3() [][]int {
	nb := make([][]int, 9)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			k := y*3 + x
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if (dx == 0 && dy == 0) || nx < 0 || nx > 2 || ny < 0 || ny > 2 {
						continue
					}
					nb[k] = append(nb[k], ny*3+nx)
				}
			}
		}
	}
	return nb
}

// calFrames synthesizes calibration frames: per-sensor level ~1 with a
// little multiplicative noise.
func calFrames(n int, rng *rand.Rand) [][]float64 {
	frames := make([][]float64, n)
	for i := range frames {
		f := make([]float64, 9)
		for k := range f {
			f[k] = 1 + 0.002*rng.NormFloat64()
		}
		frames[i] = f
	}
	return frames
}

func TestSelfReferenceCalibrationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := calFrames(6, rng)
	nb := grid3x3()
	if _, err := CalibrateSelfReference(good[:3], nb, SelfReferenceConfig{}); err == nil {
		t.Error("3 frames accepted")
	}
	ragged := calFrames(6, rng)
	ragged[2] = ragged[2][:5]
	if _, err := CalibrateSelfReference(ragged, nb, SelfReferenceConfig{}); err == nil {
		t.Error("ragged frames accepted")
	}
	if _, err := CalibrateSelfReference(good, nb[:4], SelfReferenceConfig{}); err == nil {
		t.Error("short adjacency accepted")
	}
	bad := grid3x3()
	bad[0] = []int{9}
	if _, err := CalibrateSelfReference(good, bad, SelfReferenceConfig{}); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
	self := grid3x3()
	self[0] = []int{0}
	if _, err := CalibrateSelfReference(good, self, SelfReferenceConfig{}); err == nil {
		t.Error("self-neighbor accepted")
	}
	zero := [][]float64{make([]float64, 9), make([]float64, 9), make([]float64, 9), make([]float64, 9)}
	if _, err := CalibrateSelfReference(zero, nb, SelfReferenceConfig{}); err == nil {
		t.Error("all-zero calibration accepted")
	}
}

// TestSelfReferenceLocalVsCommonMode pins the defining property of
// cross-sensor self-referencing: a local bump under one sensor alarms
// and names that sensor, while the same bump applied to every sensor
// (temperature, supply sag) cancels in the spatial reference.
func TestSelfReferenceLocalVsCommonMode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, err := CalibrateSelfReference(calFrames(8, rng), grid3x3(), SelfReferenceConfig{})
	if err != nil {
		t.Fatal(err)
	}

	clean := make([]float64, 9)
	for k := range clean {
		clean[k] = 1 + 0.002*rng.NormFloat64()
	}
	v, err := d.Evaluate(clean)
	if err != nil {
		t.Fatal(err)
	}
	if v.Alarm {
		t.Fatalf("clean frame alarms: %+v", v)
	}

	local := append([]float64(nil), clean...)
	local[4] *= 1.2 // +20% under the center sensor only
	v, err = d.Evaluate(local)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Alarm || v.ArgMax != 4 {
		t.Fatalf("local bump not localized: alarm=%v argmax=%d max=%.1f", v.Alarm, v.ArgMax, v.Max)
	}

	global := append([]float64(nil), clean...)
	for k := range global {
		global[k] *= 1.2 // same +20%, everywhere
	}
	v, err = d.Evaluate(global)
	if err != nil {
		t.Fatal(err)
	}
	if v.Alarm {
		t.Fatalf("common-mode shift alarms: max=%.1f at %d", v.Max, v.ArgMax)
	}

	if _, err := d.Evaluate(clean[:5]); err == nil {
		t.Error("short frame accepted")
	}
}

// TestSelfReferenceGuardedBaseline pins that quiet frames feed the
// rolling baseline while alarming frames never do — a Trojan cannot be
// absorbed into its own reference.
func TestSelfReferenceGuardedBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, err := CalibrateSelfReference(calFrames(8, rng), grid3x3(), SelfReferenceConfig{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Baseline()

	hot := make([]float64, 9)
	for k := range hot {
		hot[k] = before[k]
	}
	hot[4] *= 1.5
	for i := 0; i < 10; i++ {
		v, err := d.Evaluate(hot)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Alarm {
			t.Fatalf("round %d: persistent local anomaly absorbed into baseline", i)
		}
	}
	if got := d.Baseline(); got[4] != before[4] {
		t.Errorf("alarming frames moved the baseline: %.6f -> %.6f", before[4], got[4])
	}

	// A quiet drift does update the baseline.
	quiet := append([]float64(nil), before...)
	for k := range quiet {
		quiet[k] *= 1.01
	}
	if _, err := d.Evaluate(quiet); err != nil {
		t.Fatal(err)
	}
	if got := d.Baseline(); got[4] == before[4] {
		t.Error("quiet frame did not update the baseline")
	}
}

// TestSelfReferenceSingleSensor pins the 1×1 degradation: with no
// neighbors the detector falls back to history-only referencing, so a
// global shift does alarm (there is no spatial common mode to cancel).
func TestSelfReferenceSingleSensor(t *testing.T) {
	frames := [][]float64{{1.0}, {1.001}, {0.999}, {1.0}, {1.002}}
	d, err := CalibrateSelfReference(frames, [][]int{nil}, SelfReferenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Evaluate([]float64{1.0}); v.Alarm {
		t.Fatalf("steady single sensor alarms: %+v", v)
	}
	if v, _ := d.Evaluate([]float64{1.3}); !v.Alarm {
		t.Fatalf("single-sensor step not detected: %+v", v)
	}
}
