package core

import (
	"math"

	"emtrust/internal/stats"
)

// Population-level self-reference: the cross-die analog of
// SelfReference's neighbor median. At fleet scale every die carries a
// reference it was never fabricated with — the rest of the population
// at the same instant. A Trojan activating on one die moves that die's
// detector statistic away from the fleet; a common-mode effect (an
// ambient temperature swing, a firmware rollout changing the workload
// phase, seasonal supply drift) moves every die together and cancels in
// the cross-die comparison. What survives cancellation is ranked with
// Benjamini-Hochberg false-discovery control, so the fleet alarm list
// is a triage queue with a bounded expected fraction of clean dies on
// it, instead of alpha*N per-die false alarms.

// PopulationConfig tunes the cross-die detector.
type PopulationConfig struct {
	// MinCohort is the fewest eligible dies for which common-mode
	// cancellation is applied; a smaller cohort has no trustworthy
	// median and the common mode is taken as 0. Default 8.
	MinCohort int
	// Sigma is the per-die score spread under the clean hypothesis
	// after cancellation (an aggregator feeding EWMA-smoothed z-scores
	// passes the EWMA's effective sigma). Default 1.
	Sigma float64
	// FDR is the Benjamini-Hochberg false discovery rate of the fleet
	// alarm set. Default 0.05.
	FDR float64
}

// DefaultPopulationConfig returns the tuning used by the fleet service.
func DefaultPopulationConfig() PopulationConfig {
	return PopulationConfig{MinCohort: 8, Sigma: 1, FDR: 0.05}
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.MinCohort <= 0 {
		c.MinCohort = 8
	}
	if c.Sigma <= 0 {
		c.Sigma = 1
	}
	if c.FDR <= 0 || c.FDR >= 1 {
		c.FDR = 0.05
	}
	return c
}

// PopulationVerdict is one ranking pass over the fleet. Slices parallel
// the scores passed to Rank.
type PopulationVerdict struct {
	// CommonMode is the median score of the eligible cohort (0 when the
	// cohort is below MinCohort).
	CommonMode float64
	// Adjusted is score minus common mode (NaN for ineligible dies).
	Adjusted []float64
	// P is the one-sided p-value of Adjusted against the clean
	// hypothesis N(0, Sigma) (1 for ineligible dies).
	P []float64
	// Flag marks the Benjamini-Hochberg rejections at the configured
	// FDR — the fleet's alarm set.
	Flag []bool
	// Threshold is the largest rejected p-value (0 when nothing is
	// flagged).
	Threshold float64
	// Eligible counts the dies in the test family.
	Eligible int
}

// PopulationReference ranks per-die detector statistics against the
// live population. It is stateless: callers own the per-die score
// accumulation (EWMAs, sample counts) and pass one frame per pass.
type PopulationReference struct {
	cfg PopulationConfig
}

// NewPopulationReference builds the detector (zero-value fields take
// defaults).
func NewPopulationReference(cfg PopulationConfig) *PopulationReference {
	return &PopulationReference{cfg: cfg.withDefaults()}
}

// Rank cancels the common mode and flags the FDR-controlled alarm set.
// scores[i] is die i's current detector statistic (a z-like score where
// larger means more Trojan-like); eligible[i] gates die i into the test
// family — callers exclude quarantined dies and dies with too few
// verdicts. A nil eligible slice includes every die. Non-finite scores
// are ineligible regardless.
func (p *PopulationReference) Rank(scores []float64, eligible []bool) PopulationVerdict {
	v := PopulationVerdict{
		Adjusted: make([]float64, len(scores)),
		P:        make([]float64, len(scores)),
		Flag:     make([]bool, len(scores)),
	}
	in := func(i int) bool {
		if eligible != nil && !eligible[i] {
			return false
		}
		return !math.IsNaN(scores[i]) && !math.IsInf(scores[i], 0)
	}
	cohort := make([]float64, 0, len(scores))
	for i := range scores {
		if in(i) {
			cohort = append(cohort, scores[i])
		}
	}
	v.Eligible = len(cohort)
	if v.Eligible >= p.cfg.MinCohort {
		v.CommonMode = median(cohort)
	}
	// p-values for the eligible family only: an ineligible die must not
	// dilute the Benjamini-Hochberg family size.
	family := make([]float64, 0, v.Eligible)
	idx := make([]int, 0, v.Eligible)
	for i := range scores {
		if !in(i) {
			v.Adjusted[i] = math.NaN()
			v.P[i] = 1
			continue
		}
		v.Adjusted[i] = scores[i] - v.CommonMode
		v.P[i] = stats.NormalSF(v.Adjusted[i] / p.cfg.Sigma)
		family = append(family, v.P[i])
		idx = append(idx, i)
	}
	reject, thr := stats.BenjaminiHochberg(family, p.cfg.FDR)
	v.Threshold = thr
	for k, r := range reject {
		if r {
			v.Flag[idx[k]] = true
		}
	}
	return v
}
