package fleet

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"emtrust/internal/core"
	"emtrust/internal/stats"
)

// dieState is the aggregator's fixed-size view of one die. The
// aggregator's memory is exactly Dies of these plus one ranking
// snapshot — independent of how many verdicts stream through.
type dieState struct {
	count     int // accepted verdicts folded into the EWMA
	rejected  int
	confirmed int
	ewma      float64
	seen      bool
	distance  float64 // last accepted distance
	lastZ     float64 // last accepted residual z
}

// aggregator folds the verdict stream into per-die EWMAs and
// periodically re-ranks the fleet: common-mode cancellation against the
// live population median, robust re-standardization by the fleet's MAD,
// and a Benjamini-Hochberg pass that turns per-die p-values into an
// alarm list with a bounded false-discovery fraction.
type aggregator struct {
	cfg  Config
	dies []*Die

	// The stream counters are atomic, outside the mutex, so Status
	// snapshots and the chaos stall hook read them without stalling a
	// batch ingest mid-flush.
	processed atomic.Uint64
	rejected  atomic.Uint64
	confirmed atomic.Uint64

	mu        sync.Mutex
	st        []dieState
	sinceRank int
	rank      core.PopulationVerdict
	fleetSig  float64
	scores    []float64 // scratch, reused per ranking pass
	eligible  []bool
}

func newAggregator(cfg Config, dies []*Die) *aggregator {
	return &aggregator{
		cfg: cfg, dies: dies,
		st:       make([]dieState, len(dies)),
		scores:   make([]float64, len(dies)),
		eligible: make([]bool, len(dies)),
	}
}

// ingestBatch folds a drained queue batch in under one lock
// acquisition — the aggregator-side half of the batched delivery path.
// Called only from the aggregator goroutine; the mutex protects
// concurrent Status/Alarms readers.
func (a *aggregator) ingestBatch(vs []verdict) {
	if len(vs) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, v := range vs {
		a.ingestLocked(v)
	}
}

func (a *aggregator) ingestLocked(v verdict) {
	st := &a.st[v.die]
	a.processed.Add(1)
	if v.rejected {
		st.rejected++
		a.rejected.Add(1)
	} else if !math.IsNaN(v.z) && !math.IsInf(v.z, 0) {
		// Winsorize what feeds the EWMA: a persistent Trojan offset
		// saturates the cap round after round and still dominates the
		// ranking, while a single surviving burst can only buy a
		// bounded, fast-decaying bump.
		z := v.z
		if cap := 4 * thresholdK; z > cap {
			z = cap
		}
		if !st.seen {
			st.ewma, st.seen = z, true
		} else {
			st.ewma = (1-ewmaAlpha)*st.ewma + ewmaAlpha*z
		}
		st.count++
		st.distance = v.distance
		st.lastZ = v.z
		if v.z > thresholdK {
			st.confirmed++
			a.confirmed.Add(1)
		}
	}
	if a.sinceRank++; a.sinceRank >= a.cfg.RankEvery {
		a.rerankLocked()
	}
}

// rerankLocked recomputes the fleet ranking from the current per-die
// EWMAs. The per-die z-scores are already null-calibrated, but each
// die's calibration is only as good as its 16-trace null sample; the
// fleet's own robust spread (MAD about the median) re-standardizes them
// so the Benjamini-Hochberg p-values stay honest even when the
// per-die calibration is collectively off.
func (a *aggregator) rerankLocked() {
	a.sinceRank = 0
	n := 0
	for i := range a.st {
		st := &a.st[i]
		a.scores[i] = st.ewma
		a.eligible[i] = st.seen && st.count >= a.cfg.MinSamples &&
			!a.dies[i].quarantined.Load() &&
			!math.IsNaN(st.ewma) && !math.IsInf(st.ewma, 0)
		if a.eligible[i] {
			n++
		}
	}
	a.fleetSig = a.fleetSigmaLocked(n)
	pr := core.NewPopulationReference(core.PopulationConfig{
		MinCohort: minCohort,
		Sigma:     a.fleetSig,
		FDR:       fdr,
	})
	a.rank = pr.Rank(a.scores, a.eligible)
}

// fleetSigmaLocked estimates the clean cross-die spread of the EWMA
// scores: 1.4826*MAD about the median, floored so a perfectly quiet
// fleet does not turn numerical dust into alarms. Robust, so the
// infected tail barely moves it.
func (a *aggregator) fleetSigmaLocked(n int) float64 {
	if n < minCohort {
		return 1
	}
	vals := make([]float64, 0, n)
	for i := range a.st {
		if a.eligible[i] {
			vals = append(vals, a.scores[i])
		}
	}
	_, sig := stats.RobustScale(vals)
	if sig < 0.1 {
		sig = 0.1
	}
	return sig
}

// snapshot re-ranks if new verdicts arrived and returns the aggregation
// counters plus a copy of the current ranking.
func (a *aggregator) snapshot() (processed, rejected, confirmed uint64, rank core.PopulationVerdict, fleetSig float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sinceRank > 0 || a.rank.Adjusted == nil {
		a.rerankLocked()
	}
	rank = a.rank
	rank.Adjusted = append([]float64(nil), a.rank.Adjusted...)
	rank.P = append([]float64(nil), a.rank.P...)
	rank.Flag = append([]bool(nil), a.rank.Flag...)
	return a.processed.Load(), a.rejected.Load(), a.confirmed.Load(), rank, a.fleetSig
}

// Alarm is one ranked fleet alarm, ordered most-suspicious first.
type Alarm struct {
	Die int `json:"die"`
	// Score is the die's common-mode-cancelled, fleet-standardized
	// z-score; P its one-sided p-value in the Benjamini-Hochberg
	// family.
	Score float64 `json:"score"`
	P     float64 `json:"p"`
	// Verdicts and Confirmed count this die's accepted verdicts and
	// those whose residual crossed the per-die guard threshold; EWMA is
	// the smoothed per-die z the ranking runs on, in the die's own null
	// sigma units.
	Verdicts  int     `json:"verdicts"`
	Confirmed int     `json:"confirmed"`
	EWMA      float64 `json:"ewma"`
	// Distance and LastZ echo the die's latest accepted time-domain
	// distance and its null-calibrated residual score.
	Distance float64 `json:"distance"`
	LastZ    float64 `json:"last_z"`
}

// alarms builds the ranked alarm list from the current ranking.
func (a *aggregator) alarms() []Alarm {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sinceRank > 0 || a.rank.Adjusted == nil {
		a.rerankLocked()
	}
	out := make([]Alarm, 0, 16)
	for i, flagged := range a.rank.Flag {
		if !flagged {
			continue
		}
		st := &a.st[i]
		// Confirmation gate: a fleet alarm needs the die's own detector
		// to have held above threshold — a sustained fraction of its
		// confirmed rounds, and an average level that is itself
		// anomalous in the die's own null units. A clean die's one- or
		// two-round noise excursion can survive Benjamini-Hochberg when
		// the infected dies' p-values drag the threshold up and the
		// clean fleet's MAD is tiny; it cannot survive this. An always-on
		// Trojan confirms essentially every accepted round, so requiring
		// two-thirds leaves real alarms untouched; a clean die's noise
		// confirms about half its rounds at best. The EWMA criterion is
		// deliberately redundant with the count ratio: shedding drops
		// confirmed and unconfirmed verdicts alike, but at tiny counts
		// the ratio is coarse while the EWMA still integrates level.
		if st.confirmed < 2 || 3*st.confirmed < 2*st.count || st.ewma < thresholdK/2 {
			continue
		}
		out = append(out, Alarm{
			Die:       i,
			Score:     a.rank.Adjusted[i] / a.fleetSig,
			P:         a.rank.P[i],
			Verdicts:  st.count,
			Confirmed: st.confirmed,
			EWMA:      st.ewma,
			Distance:  st.distance,
			LastZ:     st.lastZ,
		})
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].P != out[y].P {
			return out[x].P < out[y].P
		}
		if out[x].Score != out[y].Score {
			return out[x].Score > out[y].Score
		}
		return out[x].Die < out[y].Die
	})
	return out
}
