package main

import (
	"testing"

	"emtrust/internal/frand"
)

// Spans: a root [0,100] with child a [10,40] (which has grandchild g
// [20,30]) and children b [50,90] and c [60,95], which overlap.
func nestedSpans() []span {
	return []span{
		{Name: "root", Layer: "harness", Parent: -1, Start: 0, End: 100},
		{Name: "a", Layer: "x", Parent: 0, Start: 10, End: 40},
		{Name: "g", Layer: "y", Parent: 1, Start: 20, End: 30},
		{Name: "b", Layer: "y", Parent: 0, Start: 50, End: 90},
		{Name: "c", Layer: "y", Parent: 0, Start: 60, End: 95},
	}
}

func TestSelfTimesSubtractsNestedChildren(t *testing.T) {
	got := selfTimes(nestedSpans())
	// root: 100 minus a's 30 and the union of b and c, [50,95] = 45.
	want := []int64{25, 20, 10, 40, 35}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimesClipsChildrenToParent(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 10, End: 20},
		{Name: "late", Parent: 0, Start: 15, End: 30},
	}
	if got := selfTimes(spans)[0]; got != 5 {
		t.Fatalf("root self time = %d, want 5", got)
	}
}

func TestLedgerSumsLayersUnderRoots(t *testing.T) {
	spans := append(nestedSpans(),
		span{Name: "root", Layer: "harness", Parent: -1, Start: 200, End: 260},
		span{Name: "a", Layer: "x", Parent: 5, Start: 210, End: 250},
		span{Name: "outside", Layer: "x", Parent: -1, Start: 300, End: 400},
	)
	l := buildLedger(spans, "root")
	if l.Units != 2 || l.TotalNS != 160 {
		t.Fatalf("units %d total %d, want 2 and 160", l.Units, l.TotalNS)
	}
	if l.Unattributed != 25+20 {
		t.Errorf("unattributed = %d, want 45", l.Unattributed)
	}
	x, y := l.layer("x"), l.layer("y")
	if x.Calls != 2 || x.SelfNS != 20+40 {
		t.Errorf("layer x = %+v, want 2 calls and 60 ns", x)
	}
	if y.Calls != 3 || y.SelfNS != 10+40+35 {
		t.Errorf("layer y = %+v, want 3 calls and 85 ns", y)
	}
	// Unit 0: a 20 + g 10 + b 40 + c 35 (b and c overlap, so their self
	// times add to more than the 45 ns they cover together).
	if len(l.UnitAttributed) != 2 || l.UnitAttributed[0] != 105 || l.UnitAttributed[1] != 40 {
		t.Errorf("per-unit attributed = %v, want [105 40]", l.UnitAttributed)
	}
	if s := l.share(l.Unattributed); s < 28.12 || s > 28.13 {
		t.Errorf("unattributed share = %.3f%%, want 28.125%%", s)
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	var none *tracer
	if id := none.begin("x", "y", 0); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	none.end(-1)

	tr := newTracer()
	root := tr.begin("harness", "root", 7)
	child := tr.begin("x", "call", 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[1].Unit != 7 || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 500, true},
		{40, 750, true},
		{99, 750, true},
		{100, 900, true},
		{200, 950, true},
		{1000, 990, true},
		{10000, 999, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rankAt(got, c.n) < 10 {
			t.Errorf("n=%d: p%d has fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(s, 900); got != 90 {
		t.Errorf("p90 = %g, want 90", got)
	}
	if got := median(s); got != 50.5 {
		t.Errorf("median = %g, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if s[0] != 100 {
		t.Error("percentile sorted the caller's slice")
	}
}

func TestRateExcludesFailedOperations(t *testing.T) {
	if got := rate(10, 3, 2); got != 3.5 {
		t.Errorf("rate(10, 3, 2s) = %g, want 3.5", got)
	}
	if got := rate(5, 5, 1); got != 0 {
		t.Errorf("all failed: rate = %g, want 0", got)
	}
	if got := rate(5, 0, 0); got != 0 {
		t.Errorf("no time: rate = %g, want 0", got)
	}
	ok := &childResult{Attempted: 100, Failed: 4, MeasureS: 2}
	if ok.failedOps() != 4 || ok.opsRate() != 48 {
		t.Errorf("counted failures: %d failed, %g/s; want 4 and 48", ok.failedOps(), ok.opsRate())
	}
	wrong := &childResult{Attempted: 100, Failed: 4, MeasureS: 2}
	wrong.fail("a clean die alarmed")
	if wrong.failedOps() != 100 || wrong.opsRate() != 0 {
		t.Errorf("failed check: %d failed, %g/s; want 100 and 0", wrong.failedOps(), wrong.opsRate())
	}
}

func TestCountingRandPassesValuesThrough(t *testing.T) {
	plain := frand.NewRand(42)
	counted := &countingRand{r: frand.NewRand(42)}
	for i := 0; i < 1000; i++ {
		if a, b := plain.Float64(), counted.Float64(); a != b {
			t.Fatalf("draw %d: Float64 %v != %v", i, b, a)
		}
		if a, b := plain.NormFloat64(), counted.NormFloat64(); a != b {
			t.Fatalf("draw %d: NormFloat64 %v != %v", i, b, a)
		}
		if a, b := plain.Intn(1000), counted.Intn(1000); a != b {
			t.Fatalf("draw %d: Intn %v != %v", i, b, a)
		}
	}
	if counted.draws != 3000 {
		t.Fatalf("counted %d draws, want 3000", counted.draws)
	}
	counted.r.Seed(7)
	plain.Seed(7)
	if a, b := plain.NormFloat64(), counted.NormFloat64(); a != b {
		t.Fatalf("after reseed: %v != %v", b, a)
	}
}
