// Package core implements the paper's primary contribution: the runtime
// trust evaluation framework. It builds a golden EM fingerprint (feature
// extraction, PCA dimensionality reduction, Euclidean distance with the
// Eq. (1) max-pairwise threshold), inspects spectra for the
// new-or-amplified frequency spots that betray A2-style analog Trojans
// (Section III-E), and runs both detectors continuously over a stream of
// traces in the runtime Evaluator of Figure 1.
package core

import (
	"fmt"

	"emtrust/internal/dsp"
	"emtrust/internal/stats"
	"emtrust/internal/trace"
)

// FeatureExtractor reduces a raw trace to a fixed-length feature vector:
// the RMS energy of consecutive segments. Segment energies capture the
// where-and-how-much of the EM radiation while washing out the sample
// phase jitter that raw-sample distances would choke on.
type FeatureExtractor struct {
	// Segments is the number of energy windows per trace.
	Segments int
}

// Extract computes the feature vector of a trace.
func (f FeatureExtractor) Extract(t *trace.Trace) []float64 {
	return f.ExtractInto(nil, t)
}

// ExtractInto is Extract writing into dst, which is reused when its
// capacity suffices and reallocated otherwise; the (possibly new)
// buffer is returned.
func (f FeatureExtractor) ExtractInto(dst []float64, t *trace.Trace) []float64 {
	n := f.Segments
	if n <= 0 {
		n = 32
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if len(t.Samples) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i := 0; i < n; i++ {
		lo := i * len(t.Samples) / n
		hi := (i + 1) * len(t.Samples) / n
		if hi <= lo {
			hi = lo + 1
			if hi > len(t.Samples) {
				lo, hi = len(t.Samples)-1, len(t.Samples)
			}
		}
		dst[i] = dsp.RMS(t.Samples[lo:hi])
	}
	return dst
}

// FingerprintConfig sets the fingerprint construction parameters.
type FingerprintConfig struct {
	// Segments is the feature-extractor resolution.
	Segments int
	// Components is the number of principal components kept; <= 0 keeps
	// every component.
	Components int
	// ThresholdMargin scales the Eq. (1) threshold; 1.0 is the paper's
	// exact rule (max pairwise golden distance).
	ThresholdMargin float64
	// IncludeResidual appends the PCA reconstruction error (the
	// Q-statistic of process monitoring) as an extra score dimension.
	// Without it a Trojan whose signature is orthogonal to the golden
	// variation would be projected out of the reduced space entirely.
	IncludeResidual bool
}

// DefaultFingerprintConfig returns the configuration used by the
// experiments: 32 energy segments reduced to 8 principal components plus
// the reconstruction residual.
func DefaultFingerprintConfig() FingerprintConfig {
	return FingerprintConfig{Segments: 32, Components: 8, ThresholdMargin: 1.0, IncludeResidual: true}
}

// Fingerprint is the golden reference model of the data-analysis module.
type Fingerprint struct {
	Extractor FeatureExtractor
	PCA       *stats.PCA
	// Golden holds the projected golden observations (one row per
	// trace).
	Golden *stats.Matrix
	// Threshold is the Eq. (1) detection threshold EDth.
	Threshold float64
	// Centroid is the mean golden score vector, used for the Figure 6
	// distance histograms.
	Centroid []float64
	// residual records whether score vectors carry the Q-statistic.
	residual bool
}

// BuildFingerprint fits the golden model from Trojan-free traces. It
// needs at least two traces to define the Eq. (1) threshold.
func BuildFingerprint(golden []*trace.Trace, cfg FingerprintConfig) (*Fingerprint, error) {
	if len(golden) < 2 {
		return nil, fmt.Errorf("core: need at least 2 golden traces, got %d", len(golden))
	}
	if cfg.ThresholdMargin <= 0 {
		cfg.ThresholdMargin = 1.0
	}
	ex := FeatureExtractor{Segments: cfg.Segments}
	features := stats.NewMatrix(len(golden), len(ex.Extract(golden[0])))
	for i, t := range golden {
		copy(features.Row(i), ex.Extract(t))
	}
	pca := stats.FitPCA(features, cfg.Components)
	fp := &Fingerprint{
		Extractor: ex,
		PCA:       pca,
		residual:  cfg.IncludeResidual,
	}
	scores := stats.NewMatrix(len(golden), len(fp.project(features.Row(0))))
	for i := 0; i < features.Rows; i++ {
		copy(scores.Row(i), fp.project(features.Row(i)))
	}
	fp.Golden = scores
	fp.Threshold = cfg.ThresholdMargin * stats.MaxPairwiseDistance(scores)
	fp.Centroid = stats.Centroid(scores)
	return fp, nil
}

// project maps a feature vector to scores, optionally appending the
// reconstruction residual.
func (fp *Fingerprint) project(features []float64) []float64 {
	scores, _ := fp.ScoreInto(nil, nil, features)
	return scores
}

// ScoreInto maps a feature vector to the fingerprint's score vector
// (PCA scores, plus the reconstruction residual when configured),
// writing it into dst and using recon as reconstruction scratch; both
// buffers are reused when their capacity suffices and the (possibly
// grown) buffers are returned, so a caller that keeps them scores
// without allocating.
func (fp *Fingerprint) ScoreInto(dst, recon, features []float64) (scores, reconOut []float64) {
	k := fp.PCA.K()
	n := k
	if fp.residual {
		n = k + 1
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	fp.PCA.ProjectInto(dst[:k], features)
	if !fp.residual {
		return dst, recon
	}
	if cap(recon) < len(fp.PCA.Mean) {
		recon = make([]float64, len(fp.PCA.Mean))
	}
	recon = recon[:len(fp.PCA.Mean)]
	fp.PCA.ReconstructInto(recon, dst[:k])
	dst[k] = stats.Euclidean(features, recon)
	return dst, recon
}

// Project maps a trace into the golden score space (PCA scores plus the
// residual dimension when configured).
func (fp *Fingerprint) Project(t *trace.Trace) []float64 {
	return fp.project(fp.Extractor.Extract(t))
}

// Distance returns the trace's Euclidean distance to the nearest golden
// sample: the quantity compared against the Eq. (1) threshold.
func (fp *Fingerprint) Distance(t *trace.Trace) float64 {
	return stats.MinDistanceToSet(fp.Project(t), fp.Golden)
}

// CentroidDistance returns the distance to the golden centroid, the
// statistic plotted in the Figure 6 histograms.
func (fp *Fingerprint) CentroidDistance(t *trace.Trace) float64 {
	return stats.Euclidean(fp.Project(t), fp.Centroid)
}

// Evaluate runs the time-domain detector on one trace.
func (fp *Fingerprint) Evaluate(t *trace.Trace) TimeVerdict {
	d := fp.Distance(t)
	return TimeVerdict{Distance: d, Threshold: fp.Threshold, Alarm: d > fp.Threshold}
}

// TimeVerdict is the outcome of the Euclidean-distance detector.
type TimeVerdict struct {
	Distance  float64
	Threshold float64
	Alarm     bool
}
