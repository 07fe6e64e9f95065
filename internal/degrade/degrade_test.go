package degrade

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emtrust/internal/trace"
)

// passthrough returns the clean waveform unchanged, isolating the
// stages under test from acquisition noise.
type passthrough struct{}

func (passthrough) Acquire(clean []float64, dt float64, _ trace.Rand) *trace.Trace {
	s := make([]float64, len(clean))
	copy(s, clean)
	return &trace.Trace{Dt: dt, Samples: s}
}

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Sin(float64(i) * 0.1)
	}
	return s
}

func TestClipSaturates(t *testing.T) {
	ch := Wrap(passthrough{}, Clip{Rail: 0.5})
	tr := ch.AcquireAt(0, ramp(256), 1e-8, rand.New(rand.NewSource(1)))
	for i, v := range tr.Samples {
		if v > 0.5 || v < -0.5 {
			t.Fatalf("sample %d = %g beyond rail", i, v)
		}
	}
	clipped := 0
	for _, v := range tr.Samples {
		if v == 0.5 || v == -0.5 {
			clipped++
		}
	}
	if clipped == 0 {
		t.Fatal("nothing hit the rail; the stimulus should exceed 0.5")
	}
}

func TestDropoutZeroesSamples(t *testing.T) {
	ch := Wrap(passthrough{}, Dropout{Rate: 0.2})
	in := make([]float64, 2000)
	for i := range in {
		in[i] = 1
	}
	tr := ch.AcquireAt(0, in, 1e-8, rand.New(rand.NewSource(2)))
	zeros := 0
	for _, v := range tr.Samples {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 200 || zeros > 700 {
		t.Fatalf("dropout rate off: %d/2000 zeros", zeros)
	}
}

func TestStuckHoldsRuns(t *testing.T) {
	ch := Wrap(passthrough{}, Stuck{Rate: 0.05, MeanRun: 4})
	in := make([]float64, 1000)
	for i := range in {
		in[i] = float64(i) // strictly increasing, so repeats betray the stage
	}
	tr := ch.AcquireAt(0, in, 1e-8, rand.New(rand.NewSource(3)))
	repeats := 0
	for i := 1; i < len(tr.Samples); i++ {
		if tr.Samples[i] == tr.Samples[i-1] {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("no stuck runs injected")
	}
}

func TestBurstRaisesRMS(t *testing.T) {
	ch := Wrap(passthrough{}, Burst{Rate: 0.01, RMS: 10, MeanRun: 8})
	tr := ch.AcquireAt(0, ramp(4096), 1e-8, rand.New(rand.NewSource(4)))
	var energy float64
	for _, v := range tr.Samples {
		energy += v * v
	}
	clean := ramp(4096)
	var cleanEnergy float64
	for _, v := range clean {
		cleanEnergy += v * v
	}
	if energy < 2*cleanEnergy {
		t.Fatalf("burst noise did not raise energy: %g vs clean %g", energy, cleanEnergy)
	}
}

func TestDriftAccruesWithIndex(t *testing.T) {
	ch := Wrap(passthrough{}, Drift{GainPerTrace: 0.01, OffsetPerTrace: 0.1})
	rng := rand.New(rand.NewSource(5))
	early := ch.AcquireAt(0, ramp(64), 1e-8, rng)
	late := ch.AcquireAt(50, ramp(64), 1e-8, rng)
	// Index 0: untouched. Index 50: gain 1.5, offset +5.
	for i := range early.Samples {
		want := ramp(64)[i]*1.5 + 5
		if math.Abs(late.Samples[i]-want) > 1e-12 {
			t.Fatalf("sample %d: %g, want %g", i, late.Samples[i], want)
		}
		if early.Samples[i] != ramp(64)[i] {
			t.Fatalf("index 0 must be drift-free")
		}
	}
}

func TestJitterPreservesEnvelope(t *testing.T) {
	ch := Wrap(passthrough{}, Jitter{RMSFraction: 0.3})
	in := ramp(1024)
	tr := ch.AcquireAt(0, in, 1e-8, rand.New(rand.NewSource(6)))
	moved := 0
	for i, v := range tr.Samples {
		if v != in[i] {
			moved++
		}
		if v > 1 || v < -1 {
			t.Fatalf("interpolation overshot at %d: %g", i, v)
		}
	}
	if moved < len(in)/4 {
		t.Fatalf("jitter barely moved anything: %d samples", moved)
	}
}

func TestFlatlineStartsAtIndex(t *testing.T) {
	ch := Wrap(passthrough{}, Flatline{Start: 10})
	rng := rand.New(rand.NewSource(7))
	alive := ch.AcquireAt(9, ramp(64), 1e-8, rng)
	dead := ch.AcquireAt(10, ramp(64), 1e-8, rng)
	for i := range alive.Samples {
		if alive.Samples[i] != ramp(64)[i] {
			t.Fatal("flatline fired early")
		}
		if dead.Samples[i] != 0 {
			t.Fatal("flatline left a live sample")
		}
	}
}

func TestChannelDeterministicPerIndex(t *testing.T) {
	stages := Profile{Severity: 2, RefRMS: 0.7, Span: 50}.Stages()
	a := Wrap(trace.SimulationChannel(0.05), stages...)
	b := Wrap(trace.SimulationChannel(0.05), stages...)
	in := ramp(512)
	for _, idx := range []int{0, 7, 49} {
		ta := a.AcquireAt(idx, in, 1e-8, rand.New(rand.NewSource(99)))
		tb := b.AcquireAt(idx, in, 1e-8, rand.New(rand.NewSource(99)))
		for i := range ta.Samples {
			if ta.Samples[i] != tb.Samples[i] {
				t.Fatalf("index %d sample %d diverged: %g vs %g", idx, i, ta.Samples[i], tb.Samples[i])
			}
		}
	}
}

func TestAcquireAdvancesTimeline(t *testing.T) {
	ch := Wrap(passthrough{}, Drift{OffsetPerTrace: 1})
	rng := rand.New(rand.NewSource(8))
	first := ch.Acquire(make([]float64, 4), 1e-8, rng)
	second := ch.Acquire(make([]float64, 4), 1e-8, rng)
	if first.Samples[0] != 0 || second.Samples[0] != 1 {
		t.Fatalf("timeline index not advancing: %g then %g", first.Samples[0], second.Samples[0])
	}
}

func TestProfileSeverityZeroIsPristine(t *testing.T) {
	if got := (Profile{Severity: 0, RefRMS: 1}).Stages(); got != nil {
		t.Fatalf("severity 0 must inject nothing, got %d stages", len(got))
	}
	stages := Profile{Severity: 1, RefRMS: 1, Span: 100}.Stages()
	if len(stages) == 0 {
		t.Fatal("severity 1 must inject stages")
	}
	for _, s := range stages {
		if s.Name() == "" {
			t.Fatal("unnamed stage")
		}
	}
}

// TestProfileEdgeSeverities pins the profile's behavior across the full
// float64 severity range: negative and NaN disable the chain like zero
// does, while huge and infinite severities clamp — every stage
// parameter stays finite, and the acquired samples stay finite and
// deterministic. Fleet configs do arithmetic on user input, so Stages
// must be total over float64, not just sensible inputs.
func TestProfileEdgeSeverities(t *testing.T) {
	for _, sev := range []float64{0, -1, -1e300, math.NaN()} {
		if got := (Profile{Severity: sev, RefRMS: 1}).Stages(); got != nil {
			t.Fatalf("severity %v must inject nothing, got %d stages", sev, len(got))
		}
	}
	for _, sev := range []float64{1e-12, 3, 1e9, 1e300, math.Inf(1)} {
		p := Profile{Severity: sev, RefRMS: 1, RefPeak: 5, Span: 10}
		stages := p.Stages()
		if len(stages) == 0 {
			t.Fatalf("severity %v must inject stages", sev)
		}
		ch := Wrap(passthrough{}, stages...)
		var prev *trace.Trace
		for _, idx := range []int{0, 7, 100000} {
			tr := ch.AcquireAt(idx, ramp(256), 1e-8, rand.New(rand.NewSource(9)))
			for i, v := range tr.Samples {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("severity %v index %d: sample %d = %v", sev, idx, i, v)
				}
			}
			prev = tr
		}
		// Same (index, seed) must reproduce bit-identically.
		again := ch.AcquireAt(100000, ramp(256), 1e-8, rand.New(rand.NewSource(9)))
		for i := range again.Samples {
			if again.Samples[i] != prev.Samples[i] {
				t.Fatalf("severity %v: sample %d not deterministic: %v != %v",
					sev, i, again.Samples[i], prev.Samples[i])
			}
		}
	}
}

// fixedNormals is a trace.Rand whose normal draws replay a fixed
// cycle, to put exact values (zero included) under a stage.
type fixedNormals struct {
	vals []float64
	next int
}

func (f *fixedNormals) NormFloat64() float64 {
	v := f.vals[f.next%len(f.vals)]
	f.next++
	return v
}
func (f *fixedNormals) Float64() float64 { return 0.5 }
func (f *fixedNormals) Intn(n int) int   { return n - 1 }

// TestStageDegenerateParams gives each degenerate parameter a defined,
// tested outcome. Each case used to panic: int(NaN) indexing in Jitter,
// 0·Inf = NaN positions in Jitter at infinite RMS, and 2*MeanRun-1
// overflowing Intn's argument in Stuck and Burst.
func TestStageDegenerateParams(t *testing.T) {
	in := ramp(64)
	cases := []struct {
		name  string
		stage Stage
		rng   trace.Rand
		check func(out []float64) error
	}{
		{"jitter NaN is disabled", Jitter{RMSFraction: math.NaN()}, rand.New(rand.NewSource(1)),
			func(out []float64) error { return sameAs(out, in) }},
		{"jitter +Inf keeps zero-offset samples and sends the rest to the ends",
			Jitter{RMSFraction: math.Inf(1)}, &fixedNormals{vals: []float64{0, 1, -1, 1e-300}},
			func(out []float64) error {
				for i, v := range out {
					want := [4]float64{in[i], in[len(in)-1], in[0], in[len(in)-1]}[i%4]
					if v != want {
						return fmt.Errorf("sample %d = %v, want %v", i, v, want)
					}
				}
				return nil
			}},
		{"stuck MaxInt mean holds to the record end", Stuck{Rate: 1, MeanRun: math.MaxInt}, rand.New(rand.NewSource(2)),
			func(out []float64) error {
				for i, v := range out {
					if v != in[0] {
						return fmt.Errorf("sample %d = %v, want held %v", i, v, in[0])
					}
				}
				return nil
			}},
		{"burst MaxInt mean runs to the record end", Burst{Rate: 1, RMS: 1, MeanRun: math.MaxInt}, rand.New(rand.NewSource(3)),
			func(out []float64) error {
				for i, v := range out {
					if v == in[i] || math.IsNaN(v) {
						return fmt.Errorf("sample %d = %v untouched", i, v)
					}
				}
				return nil
			}},
		{"stuck NaN rate is disabled", Stuck{Rate: math.NaN(), MeanRun: 4}, rand.New(rand.NewSource(4)),
			func(out []float64) error { return sameAs(out, in) }},
		{"burst NaN RMS is disabled", Burst{Rate: 0.5, RMS: math.NaN(), MeanRun: 4}, rand.New(rand.NewSource(5)),
			func(out []float64) error { return sameAs(out, in) }},
		{"dropout NaN rate is disabled", Dropout{Rate: math.NaN()}, rand.New(rand.NewSource(6)),
			func(out []float64) error { return sameAs(out, in) }},
	}
	for _, tc := range cases {
		out := append([]float64(nil), in...)
		tc.stage.Apply(out, Env{Rng: tc.rng})
		if err := tc.check(out); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func sameAs(got, want []float64) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
