// Package experiments regenerates every table and figure of the paper's
// evaluation: Table I (Trojan sizes), the Section IV-B and V-A SNR
// comparisons, the Section IV-C Euclidean distances, the Figure 4 A2
// spectrum, the Figure 6 histogram and spectrum panels, and a Figure 3
// layout report. Each entry point returns a structured result with a
// textual rendering, and records the paper's published values next to
// the measured ones so EXPERIMENTS.md can be generated mechanically.
package experiments

import (
	"fmt"
	"math"

	"emtrust/internal/chip"
	"emtrust/internal/core"
)

// Config scales the experiments. Tests use the (fast) defaults; the
// benchmark harness and the CLI can raise the trace counts for smoother
// histograms.
type Config struct {
	Chip chip.Config
	// Key is the fixed AES key under which all traces are captured.
	Key []byte
	// Plaintext fixes the encryption stimulus. Side-channel
	// fingerprinting assumes a known, repeatable workload ("we assume
	// the users know how the circuit will operate"): with the stimulus
	// fixed, golden traces differ only by noise and the Eq. (1)
	// threshold is tight.
	Plaintext []byte
	// GoldenTraces fit the fingerprint/envelope; TestTraces form each
	// evaluated population.
	GoldenTraces int
	TestTraces   int
	// CaptureCycles is the trace window for time-domain experiments;
	// SpectralCycles for frequency-domain ones (longer, for resolution).
	CaptureCycles  int
	SpectralCycles int
	// HistBins bins the Figure 6 histograms.
	HistBins int

	// CampaignMembers sizes the generated-Trojan campaign (0 keeps the
	// generator's 105-member k × rarity sweep). CampaignSearchMembers is
	// the subset the stimulus-search comparison runs on, and
	// CampaignSearchPop/Gens set its per-member budget (population ×
	// generations, identical for every searcher).
	CampaignMembers       int
	CampaignSearchMembers int
	CampaignSearchPop     int
	CampaignSearchGens    int

	Fingerprint core.FingerprintConfig
	Spectral    core.SpectralConfig
}

// DefaultConfig returns a configuration that runs the full suite in
// seconds while preserving every qualitative result.
func DefaultConfig() Config {
	return Config{
		Chip: chip.DefaultConfig(),
		Key: []byte{
			0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
			0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
		},
		Plaintext: []byte{
			0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
			0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
		},
		GoldenTraces:   60,
		TestTraces:     60,
		CaptureCycles:  32,
		SpectralCycles: 512,
		HistBins:       40,

		CampaignSearchMembers: 21,
		CampaignSearchPop:     32,
		CampaignSearchGens:    6,
		Fingerprint:           core.DefaultFingerprintConfig(),
		Spectral:              core.DefaultSpectralConfig(),
	}
}

// Scaled returns a copy of the configuration with trace counts multiplied
// by f (at least 2 traces); used by the benchmark harness to approach the
// paper's 2x10^4-count histograms. It fails when f is NaN or infinite or
// a scaled count exceeds math.MaxInt32.
func (c Config) Scaled(f float64) (Config, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Config{}, fmt.Errorf("experiments: scale %v is not a finite number", f)
	}
	for _, n := range []*int{&c.GoldenTraces, &c.TestTraces} {
		switch v := float64(*n) * f; {
		case v > math.MaxInt32:
			return Config{}, fmt.Errorf("experiments: scale %g asks for %.3g traces (at most %d)", f, v, math.MaxInt32)
		case v < 2:
			*n = 2
		default:
			*n = int(v)
		}
	}
	return c, nil
}
