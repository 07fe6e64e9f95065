package main

import (
	"fmt"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Parent indexes
// the enclosing span (-1 for a root); Unit is the die-round, seed,
// window or member the call worked on.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Unit   int64  `json:"unit"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The harness makes
// its calls from one goroutine, so spans nest strictly. A nil *tracer
// records nothing: untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(layer, name string, unit int64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Unit: unit, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Child intervals are clipped to the parent and merged,
// so overlapping children are not subtracted twice.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := spans[k].Start, spans[k].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// layerRow is one layer's line in a ledger.
type layerRow struct {
	Layer  string
	Calls  int
	SelfNS int64
}

// ledger is the per-layer account of every span under the roots named
// root: each layer's call count and self time, and the roots' own self
// time as the unattributed remainder.
type ledger struct {
	Root         string
	Units        int
	TotalNS      int64
	Unattributed int64
	Rows         []layerRow
	// UnitAttributed is, per root span in order, the self time of all
	// its descendants: the part of that unit the layers account for.
	UnitAttributed []int64
}

// buildLedger sums self time by layer over the descendants of every
// span named root.
func buildLedger(spans []span, root string) ledger {
	self := selfTimes(spans)
	l := ledger{Root: root}
	under := make([]int, len(spans)) // index of the enclosing root, or -1
	unitOf := map[int]int{}          // root span index -> unit position
	byLayer := map[string]*layerRow{}
	for i, s := range spans {
		under[i] = -1
		if s.Name == root {
			under[i] = i
			unitOf[i] = l.Units
			l.Units++
			l.TotalNS += s.End - s.Start
			l.Unattributed += self[i]
			l.UnitAttributed = append(l.UnitAttributed, 0)
			continue
		}
		if s.Parent >= 0 {
			under[i] = under[s.Parent]
		}
		if under[i] < 0 {
			continue
		}
		l.UnitAttributed[unitOf[under[i]]] += self[i]
		r := byLayer[s.Layer]
		if r == nil {
			r = &layerRow{Layer: s.Layer}
			byLayer[s.Layer] = r
		}
		r.Calls++
		r.SelfNS += self[i]
	}
	for _, r := range byLayer {
		l.Rows = append(l.Rows, *r)
	}
	sort.Slice(l.Rows, func(a, b int) bool { return l.Rows[a].SelfNS > l.Rows[b].SelfNS })
	return l
}

// share returns ns as a percentage of the ledger's total time.
func (l ledger) share(ns int64) float64 {
	if l.TotalNS <= 0 {
		return 0
	}
	return 100 * float64(ns) / float64(l.TotalNS)
}

// layer returns the named layer's row (zero when absent).
func (l ledger) layer(name string) layerRow {
	for _, r := range l.Rows {
		if r.Layer == name {
			return r
		}
	}
	return layerRow{Layer: name}
}

// lines renders the ledger as report lines, per unit of the root.
func (l ledger) lines() []string {
	if l.Units == 0 {
		return []string{fmt.Sprintf("ledger %s: no spans", l.Root)}
	}
	u := float64(l.Units)
	out := []string{
		fmt.Sprintf("ledger %s: %d units, %.2f us per unit", l.Root, l.Units, float64(l.TotalNS)/u/1e3),
		fmt.Sprintf("  %-14s %12s %14s %8s", "layer", "calls/unit", "self us/unit", "share"),
	}
	for _, r := range l.Rows {
		out = append(out, fmt.Sprintf("  %-14s %12.2f %14.3f %7.2f%%", r.Layer, float64(r.Calls)/u, float64(r.SelfNS)/u/1e3, l.share(r.SelfNS)))
	}
	out = append(out, fmt.Sprintf("  %-14s %12s %14.3f %7.2f%%", "unattributed", "", float64(l.Unattributed)/u/1e3, l.share(l.Unattributed)))
	return out
}

// spanSelfNS returns the self times, in ns, of every span with the
// given name (one sample per call).
func spanSelfNS(spans []span, self []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i]))
		}
	}
	return out
}

// percentileTenths is the ladder of reportable tail percentiles, in
// tenths of a percent.
var percentileTenths = []int{999, 990, 950, 900, 750, 500}

// rankAt is the nearest-rank position (1-based) of percentile p (in
// tenths of a percent) among n sorted samples.
func rankAt(pTenths, n int) int {
	r := (pTenths*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest percentile on the ladder that has
// at least ten of n samples beyond it, in tenths of a percent, and false
// when n is too small for any of them.
func tailPercentile(n int) (int, bool) {
	for _, p := range percentileTenths {
		if n-rankAt(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile (tenths of a percent)
// of the samples; it sorts a copy.
func percentile(samples []float64, pTenths int) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankAt(pTenths, len(s))-1]
}

// median returns the middle sample (the mean of the middle two for an
// even count); it sorts a copy.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timingLine reports a timing distribution as its median and the
// highest ladder percentile with at least ten samples beyond it, with
// the sample count.
func timingLine(name, unit string, samples []float64) string {
	line := fmt.Sprintf("%s median %.4g %s", name, median(samples), unit)
	if p, ok := tailPercentile(len(samples)); ok && p > 500 {
		line += fmt.Sprintf(", p%g %.4g %s", float64(p)/10, percentile(samples, p), unit)
	}
	return line + fmt.Sprintf(" (n=%d)", len(samples))
}

// rate is the completed operations per second: failed operations are
// attempted but never count as work done.
func rate(attempted, failed int, seconds float64) float64 {
	if seconds <= 0 || attempted <= failed {
		return 0
	}
	return float64(attempted-failed) / seconds
}
