// Package fleet is the population-scale layer over the single-die
// runtime monitor: a long-running service that simulates and monitors
// thousands of deployed dies at once. Each die is an independent
// process-variation sibling of one shared reference build (per-tile
// current gains drawn from the corner/variation model), ages through
// its own internal/degrade drift profile, and carries its own
// post-deployment fingerprint; sharded workers stream per-die verdicts
// into a bounded-memory aggregator that cancels the fleet's common mode
// (the cross-die analog of core.SelfReference's neighbor median) and
// ranks alarms under Benjamini-Hochberg false-discovery control.
//
// Robustness is the design center, not a bolt-on:
//
//   - the verdict queue is bounded with an explicit drop-oldest
//     shedding policy and a counted Dropped metric — overload degrades
//     statistics gracefully instead of growing memory or stalling
//     producers;
//   - every shard worker runs under panic recovery with a per-shard
//     supervisor that restarts it with exponential backoff and a
//     restart budget;
//   - per-die capture carries a retry and an optional timeout, and dies
//     that stay unusable are quarantined, so one flatlined sensor can
//     neither stall its shard nor poison the population statistics;
//   - shutdown is context-based and drains in-flight verdicts before
//     the aggregator exits.
//
// Determinism: every die's waveforms, faults, and infection status
// derive from (Config.Seed, die, purpose, index) via splitmix64, so the
// simulated fleet is identical across runs and shard counts; only
// which verdicts are shed under overload depends on scheduling.
package fleet

import (
	"fmt"
	"time"

	"emtrust/internal/chip"
	"emtrust/internal/trojan"
)

// Config sizes and seeds the fleet service. The zero value is not
// runnable; start from DefaultConfig.
type Config struct {
	// Chip is the shared reference build every die is a
	// process-variation sibling of.
	Chip chip.Config
	// Key and Plaintext fix the monitored encryption stimulus
	// (fingerprinting assumes a known, repeatable workload).
	Key       []byte
	Plaintext []byte

	// Dies is the population size.
	Dies int
	// Shards is the number of monitor-pool workers; dies are dealt
	// round-robin. Default 4.
	Shards int
	// Seed drives every per-die random draw.
	Seed int64

	// Prevalence is the fraction of dies fabricated with the Trojan
	// (each die draws independently, so the realized count is binomial).
	Prevalence float64
	// Trojan is the payload planted in infected dies. Default
	// T1AMLeaker: its emission delta is the largest of the four stock
	// payloads while its amplitude stays inside a degraded ADC rail
	// (T4PowerHog's sustained draw clips a severity-2 converter, which
	// the health gate reads as a dying sensor, not a Trojan).
	Trojan trojan.Kind
	// ActivationRound is the monitored round at which infected dies'
	// Trojans trigger (fingerprints are always enrolled pre-activation).
	ActivationRound int
	// TrojanStates is how many captured states of the active Trojan the
	// infected dies cycle through (Trojans with internal counters evolve
	// across captures). Default 4.
	TrojanStates int

	// VariationSigma and CornerSigma follow power.Config's process
	// model, applied per tile: each die's tile currents are scaled by
	// corner * (1 + VariationSigma*N(0,1)) with the corner shared
	// across the die. Defaults 0.05 each.
	VariationSigma float64
	CornerSigma    float64

	// Severity scales every die's degrade.Profile; each die draws a
	// personal factor in [0.5, 1.5) on top. <= 0 leaves channels
	// pristine.
	Severity float64
	// DriftSpan is the trace count over which profile drift accrues to
	// its full value. Default 400.
	DriftSpan int
	// FlatlineRate is the fraction of dies whose sensor dies outright
	// partway through the run (graceful-degradation fodder: they must
	// end up quarantined, not in the alarm list).
	FlatlineRate float64
	// CommonModeAmp and CommonModePeriod shape a fleet-wide sinusoidal
	// gain wobble (ambient temperature, supply season) that every die
	// sees identically — the signal the cross-die reference must
	// cancel. Defaults 0.01 and 200 rounds.
	CommonModeAmp    float64
	CommonModePeriod int

	// CaptureCycles is the capture window; GoldenTraces fit each die's
	// fingerprint and health envelope; NullTraces calibrate its null
	// distance distribution. Defaults 32/12/16.
	CaptureCycles int
	GoldenTraces  int
	NullTraces    int
	// TickAverages is how many back-to-back acquisitions are averaged
	// into every trace (enrollment, calibration, and monitoring alike).
	// Averaging buys detection floor directly: channel noise shrinks as
	// sqrt(TickAverages) and its bursty tails gaussianize, while the
	// Trojan's emission delta and the tracked aging drift pass through
	// untouched. Default 8.
	TickAverages int

	// QueueSize bounds the verdict queue between shards and the
	// aggregator. Default 1024.
	QueueSize int
	// Rounds stops each shard after that many monitored rounds per die;
	// 0 runs until the context is cancelled.
	Rounds int
	// TickTimeout bounds one die's capture+evaluate; 0 disables the
	// watchdog (the simulated capture cannot block on hardware, but a
	// stalled die in deployment can, and tests inject stalls).
	TickTimeout time.Duration
	// QuarantineAfter is the consecutive bad ticks (health-rejected, or
	// found still running a full round after its watchdog fired) after
	// which a die is quarantined. A tick that merely overran TickTimeout
	// but finished before the shard's next visit is scheduler jitter,
	// not die evidence, and does not feed the streak. Default 8.
	QuarantineAfter int

	// MaxRestarts is the per-shard supervisor restart budget; a shard
	// that exhausts it stays down (degraded, not fatal). Default 8.
	MaxRestarts int
	// BackoffBase doubles per consecutive restart up to BackoffMax.
	// Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// ThresholdK is each die's alarm threshold in null-calibrated sigma
	// units, and doubles as the drift tracker's freeze guard: a residual
	// beyond ThresholdK sigmas stops the tracker from learning (it
	// coasts on the trend it already holds), so smooth aging is tracked
	// away while a Trojan's activation step stays visible instead of
	// being absorbed into the baseline. Default 6.
	ThresholdK float64
	// EWMAAlpha smooths each die's z-score stream in the aggregator.
	// Default 0.15.
	EWMAAlpha float64
	// MinSamples is the verdict count before a die joins the
	// false-discovery family. Default 8.
	MinSamples int
	// RankEvery re-ranks the fleet every that many aggregated verdicts
	// (status requests also re-rank on demand). Default max(64, Dies).
	RankEvery int
	// FDR is the Benjamini-Hochberg false discovery rate of the alarm
	// list. Default 0.05.
	FDR float64
	// MinCohort gates common-mode cancellation (see
	// core.PopulationConfig). Default 8.
	MinCohort int
}

// DefaultConfig returns a small but fully-featured fleet: 64 dies on 4
// shards at 1% prevalence, severity-1 aging, and the default chip
// build.
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
		Dies:       64,
		Shards:     4,
		Seed:       1,
		Prevalence: 0.01,
		Severity:   1,
	}
}

func (c Config) withDefaults() (Config, error) {
	if c.Dies <= 0 {
		return c, fmt.Errorf("fleet: need a positive die count, got %d", c.Dies)
	}
	if len(c.Key) != 16 || len(c.Plaintext) != 16 {
		return c, fmt.Errorf("fleet: need 16-byte key and plaintext")
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Shards > c.Dies {
		c.Shards = c.Dies
	}
	if c.Trojan == 0 {
		c.Trojan = trojan.T1AMLeaker
	}
	if c.TrojanStates <= 0 {
		c.TrojanStates = 4
	}
	if c.VariationSigma == 0 {
		c.VariationSigma = 0.05
	}
	if c.CornerSigma == 0 {
		c.CornerSigma = 0.05
	}
	if c.DriftSpan <= 0 {
		c.DriftSpan = 400
	}
	if c.CommonModeAmp == 0 {
		c.CommonModeAmp = 0.01
	}
	if c.CommonModePeriod <= 0 {
		c.CommonModePeriod = 200
	}
	if c.CaptureCycles <= 0 {
		c.CaptureCycles = 32
	}
	if c.GoldenTraces < 2 {
		c.GoldenTraces = 12
	}
	if c.NullTraces < 4 {
		c.NullTraces = 16
	}
	if c.TickAverages <= 0 {
		c.TickAverages = 8
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 8
	}
	if c.MaxRestarts < 0 {
		c.MaxRestarts = 0
	} else if c.MaxRestarts == 0 {
		c.MaxRestarts = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.ThresholdK <= 0 {
		c.ThresholdK = 6
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.15
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.RankEvery <= 0 {
		c.RankEvery = 64
		if c.Dies > c.RankEvery {
			c.RankEvery = c.Dies
		}
	}
	if c.FDR <= 0 || c.FDR >= 1 {
		c.FDR = 0.05
	}
	if c.MinCohort <= 0 {
		c.MinCohort = 8
	}
	return c, nil
}

// Random-draw purposes. Every stochastic element of one die derives
// from (Seed, die, purpose, index) through splitmix64, so the fleet is
// identical across runs, shard counts, and schedules.
const (
	purposeParams = iota // corner, gains, infection, severity, flatline
	purposeGolden        // fingerprint enrollment acquisitions
	purposeNull          // null-distance calibration acquisitions
	purposeTick          // monitored acquisitions
	purposeRetry         // the bounded re-acquisition after a health reject
)

// splitmix64 is the SplitMix64 finalizer, the same mixing primitive the
// chip's per-trace streams use.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dieSeed hashes one (die, purpose, index) draw site to its generator
// seed.
func dieSeed(seed int64, die, purpose int, index uint64) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ splitmix64(uint64(die)+1))
	h = splitmix64(h ^ splitmix64(uint64(purpose)+0x1000))
	h = splitmix64(h ^ splitmix64(index+0x100000))
	return int64(h)
}
