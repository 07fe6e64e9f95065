package degrade

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emtrust/internal/frand"
	"emtrust/internal/trace"
)

// countingSource counts the raw words a *math/rand.Rand consumes.
type countingSource struct {
	rand.Source64
	words int
}

func (c *countingSource) Int63() int64   { c.words++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.words++; return c.Source64.Uint64() }

// countingRand is a trace.Rand that is not a *frand.Rand, so the stages
// take their per-draw fallback through it; it counts the calls.
type countingRand struct {
	r     *rand.Rand
	calls int
}

func (c *countingRand) Float64() float64     { c.calls++; return c.r.Float64() }
func (c *countingRand) NormFloat64() float64 { c.calls++; return c.r.NormFloat64() }
func (c *countingRand) Intn(n int) int       { c.calls++; return c.r.Intn(n) }

// paritySeed derives a seed per case so the cases draw different streams.
func paritySeed(i int) int64 { return int64(i)*7919 - 3 }

// parityRun is one stage application under the three generators: the
// bulk fast path (*frand.Rand), math/rand's per-draw calls, and the
// counting wrapper's per-draw calls.
type parityRun struct {
	fast, std, wrapped []float64
	fastRng            *frand.Rand
	stdRng             *rand.Rand
	stdSrc, wrapSrc    *countingSource
	wrap               *countingRand
}

func runParity(seed int64, in []float64, apply func(s []float64, rng trace.Rand)) parityRun {
	var p parityRun
	p.fastRng = frand.NewRand(seed)
	p.stdSrc = &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	p.stdRng = rand.New(p.stdSrc)
	p.wrapSrc = &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	p.wrap = &countingRand{r: rand.New(p.wrapSrc)}
	p.fast = append([]float64(nil), in...)
	p.std = append([]float64(nil), in...)
	p.wrapped = append([]float64(nil), in...)
	apply(p.fast, p.fastRng)
	apply(p.std, p.stdRng)
	apply(p.wrapped, p.wrap)
	return p
}

// check fails unless the three generators left identical samples and
// consumed identical draws: the math/rand paths by their word counts,
// the fast path by landing on the same next value.
func (p parityRun) check(t *testing.T, ctx string) {
	t.Helper()
	for i := range p.std {
		if !sameFloat(p.fast[i], p.std[i]) || !sameFloat(p.wrapped[i], p.std[i]) {
			t.Fatalf("%s: sample %d: fast %v, math/rand %v, wrapped %v", ctx, i, p.fast[i], p.std[i], p.wrapped[i])
		}
	}
	if p.stdSrc.words != p.wrapSrc.words {
		t.Fatalf("%s: math/rand consumed %d words, wrapped %d", ctx, p.stdSrc.words, p.wrapSrc.words)
	}
	if g, w := p.fastRng.Uint64(), p.stdRng.Uint64(); g != w {
		t.Fatalf("%s: fast path consumed a different number of draws than math/rand's %d words", ctx, p.stdSrc.words)
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// parityLens cover empty, one- and two-sample records and the stack
// chunk edges of Burst (64) and Jitter (256).
var parityLens = []int{0, 1, 2, 3, 63, 64, 65, 255, 256, 257, 600}

func parityStages() []Stage {
	var stages []Stage
	for _, r := range []float64{0, math.NaN(), -1, 0.002, 0.3, 1, 2, math.Inf(1)} {
		stages = append(stages, Dropout{Rate: r})
	}
	for _, r := range []float64{0, math.NaN(), 0.01, 0.5, 1} {
		for _, m := range []int{0, 1, 6, 1000, math.MaxInt} {
			stages = append(stages, Stuck{Rate: r, MeanRun: m})
			stages = append(stages, Burst{Rate: r, RMS: 3, MeanRun: m})
		}
	}
	stages = append(stages, Burst{Rate: 0.5, RMS: math.NaN(), MeanRun: 4}, Burst{Rate: 0.5, RMS: 0, MeanRun: 4})
	for _, f := range []float64{0, math.NaN(), 0.01, 0.3, 5, math.Inf(1)} {
		stages = append(stages, Jitter{RMSFraction: f})
	}
	return stages
}

// TestStageBulkParity runs every random stage with the bulk draws of
// *frand.Rand and the per-draw fallback of any other trace.Rand.
// Samples and draw consumption must match exactly, including runs that
// cross the record end and rates of 0, NaN and ≥ 1.
func TestStageBulkParity(t *testing.T) {
	c := 0
	for _, st := range parityStages() {
		for _, n := range parityLens {
			c++
			in := ramp(n)
			p := runParity(paritySeed(c), in, func(s []float64, rng trace.Rand) {
				st.Apply(s, Env{Dt: 1e-8, Rng: rng})
			})
			p.check(t, fmt.Sprintf("%#v n=%d", st, n))
		}
	}
}

// TestBulkDropoutDrawCount pins the counted draws perfbench reports: an
// enabled Dropout makes one Float64 call per sample, a disabled one
// none.
func TestBulkDropoutDrawCount(t *testing.T) {
	for _, r := range []float64{0.002, 1, math.Inf(1), 0, math.NaN()} {
		p := runParity(1, ramp(512), func(s []float64, rng trace.Rand) {
			Dropout{Rate: r}.Apply(s, Env{Rng: rng})
		})
		want := 512
		if !(r > 0) {
			want = 0
		}
		if p.wrap.calls != want {
			t.Fatalf("rate %v: %d draws, want %d", r, p.wrap.calls, want)
		}
	}
}

// TestChainBulkParity runs whole degrade profiles through
// AcquireAtInto, whose stages borrow the channel's scratch, and
// through AcquireAt, whose stages allocate.
func TestChainBulkParity(t *testing.T) {
	c := 0
	for _, sev := range []float64{1, 2, 3, 50} {
		for _, n := range []int{0, 1, 2, 512} {
			c++
			ch := Wrap(trace.SimulationChannel(0.05), Profile{Severity: sev, RefRMS: 0.7, Span: 50}.Stages()...)
			dst := &trace.Trace{}
			p := runParity(paritySeed(c), ramp(n), func(s []float64, rng trace.Rand) {
				copy(s, ch.AcquireAtInto(7, dst, s, 1.25, 1e-8, rng).Samples)
			})
			p.check(t, fmt.Sprintf("severity %v n=%d AcquireAtInto", sev, n))
			p = runParity(paritySeed(c), ramp(n), func(s []float64, rng trace.Rand) {
				copy(s, ch.AcquireAt(7, s, 1e-8, rng).Samples)
			})
			p.check(t, fmt.Sprintf("severity %v n=%d AcquireAt", sev, n))
		}
	}
}

// The reference stages below are the per-draw loops the bulk stages
// replaced, kept as the differential oracle for valid parameters.

func refDropout(d Dropout, s []float64, rng trace.Rand) {
	for i := range s {
		if rng.Float64() < d.Rate {
			s[i] = 0
		}
	}
}

func refStuck(g Stuck, s []float64, rng trace.Rand) {
	if len(s) < 2 {
		return
	}
	mean := max(g.MeanRun, 1)
	for i := 1; i < len(s); i++ {
		if rng.Float64() >= g.Rate {
			continue
		}
		run := 1 + rng.Intn(2*mean-1)
		hold := s[i-1]
		for j := 0; j < run && i < len(s); j, i = j+1, i+1 {
			s[i] = hold
		}
	}
}

func refBurst(b Burst, s []float64, rng trace.Rand) {
	mean := max(b.MeanRun, 1)
	for i := 0; i < len(s); i++ {
		if rng.Float64() >= b.Rate {
			continue
		}
		run := 1 + rng.Intn(2*mean-1)
		for j := 0; j < run && i < len(s); j, i = j+1, i+1 {
			s[i] += rng.NormFloat64() * b.RMS
		}
	}
}

func refJitter(j Jitter, s []float64, rng trace.Rand) {
	if len(s) < 2 {
		return
	}
	orig := append([]float64(nil), s...)
	max := float64(len(s) - 1)
	for i := range s {
		pos := float64(i) + rng.NormFloat64()*j.RMSFraction
		if pos < 0 {
			pos = 0
		} else if pos > max {
			pos = max
		}
		lo := int(pos)
		frac := pos - float64(lo)
		if lo >= len(s)-1 {
			s[i] = orig[len(s)-1]
			continue
		}
		s[i] = orig[lo]*(1-frac) + orig[lo+1]*frac
	}
}

// TestStagesMatchReferenceBulk checks the bulk stages against the
// per-draw reference loops on math/rand for valid parameters: same
// samples, same stream position afterwards.
func TestStagesMatchReferenceBulk(t *testing.T) {
	type pair struct {
		st  Stage
		ref func(s []float64, rng trace.Rand)
	}
	var cases []pair
	for _, r := range []float64{0.002, 0.3, 1} {
		d := Dropout{Rate: r}
		cases = append(cases, pair{d, func(s []float64, rng trace.Rand) { refDropout(d, s, rng) }})
		for _, m := range []int{1, 6, 1000} {
			g := Stuck{Rate: r, MeanRun: m}
			b := Burst{Rate: r, RMS: 3, MeanRun: m}
			cases = append(cases,
				pair{g, func(s []float64, rng trace.Rand) { refStuck(g, s, rng) }},
				pair{b, func(s []float64, rng trace.Rand) { refBurst(b, s, rng) }})
		}
	}
	for _, f := range []float64{0.01, 0.3, 5} {
		j := Jitter{RMSFraction: f}
		cases = append(cases, pair{j, func(s []float64, rng trace.Rand) { refJitter(j, s, rng) }})
	}
	for c, tc := range cases {
		for _, n := range parityLens {
			seed := paritySeed(c*100 + n)
			got, want := ramp(n), ramp(n)
			gr := frand.NewRand(seed)
			wr := rand.New(rand.NewSource(seed))
			tc.st.Apply(got, Env{Rng: gr})
			tc.ref(want, wr)
			for i := range want {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("%#v n=%d sample %d: %v, reference %v", tc.st, n, i, got[i], want[i])
				}
			}
			if gr.Uint64() != wr.Uint64() {
				t.Fatalf("%#v n=%d: stream position differs from the reference loop", tc.st, n)
			}
		}
	}
}
