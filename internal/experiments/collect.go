package experiments

import (
	"fmt"

	"emtrust/internal/chip"
	"emtrust/internal/frand"
	"emtrust/internal/parallel"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// This file is the deterministic trace-capture engine. Four primitives
// replace the old one-at-a-time loops:
//
//   - idleTraces: for idle windows. The chip's idle state is a fixed
//     point, so one two-step idle chain (warm-up + measure, through the
//     capture cache) stands in for every trace and only the per-trace
//     acquisition noise differs: a 60-trace set collapses from 60
//     gate-level simulations to 2, or to none on a design the cache
//     has seen.
//   - replicate: the same warm-up + measure pair for the RON baseline
//     alone, whose per-trace callback reads the capture's tile currents
//     and draws the ring oscillators' jitter before the EM noise.
//   - captureSet: for fixed-stimulus encryption sets. Active Trojans
//     with internal counters evolve across captures, so a handful of
//     serial captures sample that state diversity and the n acquisitions
//     round-robin over them.
//   - captureRandomSet: for distinct-stimulus sets (random plaintexts).
//     Each trace is a lane with its own start chip and generator
//     (randomLanes makes a set's lanes from one chip); no start chip
//     moves, so lanes from any mix of start chips run as one lane set
//     through the wide engine (chip.CaptureLanes), one chunk per
//     worker. Every lane simulates: random plaintexts never repeat,
//     so lanes bypass the capture cache.
//
// All derive per-trace randomness from (cfg.Seed, stream, index) via
// chip.SubSeed, with one stream id reserved per set (per randomLanes
// call when a random set mixes start chips), and turn their captures
// into traces through acquireSet, so results are bit-identical for any
// worker count and schedule, and the chip is left in the same post-set
// state regardless of schedule. Fixed-stimulus sets reseed one
// generator per worker for each trace; a random lane keeps the
// generator its plaintext came from. A set acquired on sensor-only
// channels (sensorOnly) draws no probe noise: the sensor's draws come
// first from each trace's private generator, so its sensor traces are
// those of a dual set.

// dualSet holds matched sensor/probe trace sets from the same captures.
// A set acquired on sensor-only channels has no probe traces.
type dualSet struct {
	Sensor trace.Set
	Probe  trace.Set
}

// sensorOnly returns ch without its probe, for experiments that read
// only the sensor.
func sensorOnly(ch chip.Channels) chip.Channels { return chip.Channels{Sensor: ch.Sensor} }

// newWorkerRand makes a worker's generator, which each of its traces
// seeds before drawing.
func newWorkerRand(int) (*frand.Rand, error) { return new(frand.Rand), nil }

// replicate runs capture against c and invokes each(i, cap, rng) for
// every trace index with the worker's generator, reseeded for the
// index; each must not keep rng. The simulator runs twice
// — a warm-up absorbing whatever transient the chip's current state
// carries (cold start, a just-toggled Trojan trigger), then the measured
// capture from the resulting steady state — instead of once per trace;
// only acquisition noise varies across the replicas. Because the steady
// state is a fixed point of the fixed-stimulus capture, every replicated
// set on the same chip measures the same waveform the old serial loop
// converged to after its first iteration, so sets fitted and tested
// against each other carry no capture-order offset. The chip advances by
// exactly two captures regardless of n or worker count.
func replicate(c *chip.Chip, n int, capture func(*chip.Chip) (*chip.Capture, error), each func(i int, cap *chip.Capture, rng *frand.Rand) error) error {
	if n <= 0 {
		return nil
	}
	stream := c.NextStream()
	if _, err := capture(c); err != nil { // warm-up, discarded
		return err
	}
	cap, err := capture(c)
	if err != nil {
		return err
	}
	return parallel.Run(n, newWorkerRand, func(rng *frand.Rand, i int) error {
		rng.Seed(c.SubSeed(stream, uint64(i)))
		return each(i, cap, rng)
	})
}

// stateSamples is how many distinct chip states a fixed-stimulus set
// samples. A dormant chip's state converges after one capture, so its
// states are identical and only the first matters; an active Trojan with
// internal counters (T3's CDMA code register) keeps evolving across
// captures, and its population statistics depend on averaging over those
// states — one state replicated n times would overstate (or understate)
// its distance. Sixteen states recover the old serial loop's diversity
// at a fraction of its simulation count.
const stateSamples = 16

// captureSet records n traces of the standard fixed-stimulus encryption
// workload: a discarded warm-up capture, stateSamples serial captures of
// the evolving chip state, and n acquisitions round-robined over the
// captured states with per-trace derived seeds.
func captureSet(c *chip.Chip, cfg Config, ch chip.Channels, n, cycles int) (*dualSet, error) {
	if n <= 0 {
		return &dualSet{}, nil
	}
	stream := c.NextStream()
	k := stateSamples
	if k > n {
		k = n
	}
	// Warm-up plus k serial captures of the evolving chip state, run as
	// one chain: the state trajectory and waveforms are bit-identical to
	// the old serial CapturePT loop, but steps the process-wide capture
	// cache has seen replay without simulating — a dormant chip's fixed
	// point collapses the whole chain to at most one simulation, and an
	// active Trojan's orbit replays after its first traversal.
	chain, err := c.CaptureChain(cfg.Plaintext, cfg.Key, cycles, k+1)
	if err != nil {
		return nil, err
	}
	caps := chain[1:] // chain[0] is the warm-up, discarded
	return acquireSet(ch, n, func(i int, rng *frand.Rand) (*chip.Capture, *frand.Rand) {
		rng.Seed(c.SubSeed(stream, uint64(i)))
		return caps[i%k], rng
	})
}

// randomLane is one trace of a random-plaintext set: the chip whose
// current state the trace's encryption starts from, and the trace's
// private generator.
type randomLane struct {
	from *chip.Chip
	rng  *frand.Rand
}

// randomLanes reserves a seed stream on c and returns n lanes that
// start from c, lane i drawing from the stream's generator i.
func randomLanes(c *chip.Chip, n int) []randomLane {
	if n <= 0 {
		return nil
	}
	stream := c.NextStream()
	lanes := make([]randomLane, n)
	for i := range lanes {
		lanes[i] = randomLane{from: c, rng: c.SplitRand(stream, uint64(i))}
	}
	return lanes
}

// captureRandomSet records one trace per lane: an encryption of a
// random plaintext, drawn from the lane's generator, from the lane's
// start chip. No start chip moves, so every lane runs through the wide
// engine (chip.CaptureLanes) in one pass: the lanes are cut into one
// chunk per worker, and every worker runs its chunk on its own
// receiver, c or a clone of c (all lanes must share c's design), which
// splits it into wide passes of at most chip.BatchLanes lanes.
// Plaintexts are drawn from each trace's generator before its
// acquisition noise, exactly as the old one-capture-per-trace loop
// did, so the output is byte-identical at any worker or lane count.
func captureRandomSet(c *chip.Chip, key []byte, ch chip.Channels, lanes []randomLane, cycles int) (*dualSet, error) {
	n := len(lanes)
	if n == 0 {
		return &dualSet{}, nil
	}
	from := make([]*chip.Chip, n)
	pts := make([][]byte, n)
	for i, l := range lanes {
		from[i] = l.from
		pts[i] = make([]byte, 16)
		l.rng.Read(pts[i])
	}
	workers := parallel.Workers(n)
	size := (n + workers - 1) / workers
	caps := make([]*chip.Capture, n)
	err := parallel.Run((n+size-1)/size,
		func(w int) (*chip.Chip, error) {
			if w == 0 {
				return c, nil
			}
			return c.Clone(), nil
		},
		func(w *chip.Chip, chunk int) error {
			lo := chunk * size
			hi := min(lo+size, n)
			got, err := w.CaptureLanes(from[lo:hi], pts[lo:hi], key, cycles)
			if err != nil {
				return err
			}
			copy(caps[lo:hi], got)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return acquireSet(ch, n, func(i int, _ *frand.Rand) (*chip.Capture, *frand.Rand) { return caps[i], lanes[i].rng })
}

// idleTraces records n traces with no encryption running
// (only the clock tree and any active Trojans radiate). The warm-up +
// measure pair runs as a two-step idle chain through the process-wide
// capture cache: stream allocation, state trajectory, and acquisition
// draws are exactly those of the old replicate form, but a chip
// configuration the cache has already seen replays both steps without
// simulating at all.
func idleTraces(c *chip.Chip, ch chip.Channels, n, cycles int) (*dualSet, error) {
	if n <= 0 {
		return &dualSet{}, nil
	}
	stream := c.NextStream()
	chain, err := c.CaptureIdleChain(cycles, 2)
	if err != nil {
		return nil, err
	}
	cap := chain[1] // chain[0] is the warm-up, discarded
	return acquireSet(ch, n, func(i int, rng *frand.Rand) (*chip.Capture, *frand.Rand) {
		rng.Seed(c.SubSeed(stream, uint64(i)))
		return cap, rng
	})
}

// acquireSet turns n clean captures into matched sensor/probe trace
// sets, or a sensor set alone on sensor-only channels: at(i, rng)
// returns trace i's capture and the generator to draw its noise from,
// either rng, the worker's own generator reseeded for the trace, or the
// trace's private one. The acquisitions fan out over the worker pool
// and each writes only its own index, so the sets are identical at any
// worker count.
func acquireSet(ch chip.Channels, n int, at func(i int, rng *frand.Rand) (*chip.Capture, *frand.Rand)) (*dualSet, error) {
	set := &dualSet{Sensor: trace.Set{Traces: make([]*trace.Trace, n)}}
	if ch.Probe != nil {
		set.Probe.Traces = make([]*trace.Trace, n)
	}
	err := parallel.Run(n, newWorkerRand, func(rng *frand.Rand, i int) error {
		s, p := ch.Acquire(at(i, rng))
		set.Sensor.Traces[i] = s
		if p != nil {
			set.Probe.Traces[i] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// infectedChip builds the chip carrying all Trojans, with everything
// dormant.
func infectedChip(cfg Config) (*chip.Chip, error) {
	chipCfg := cfg.Chip
	chipCfg.WithTrojans = true
	c, err := chip.New(chipCfg)
	if err != nil {
		return nil, err
	}
	if err := c.DeactivateAll(); err != nil {
		return nil, err
	}
	c.EnableA2(false)
	return c, nil
}

// withTrojan captures a population with exactly one Trojan active.
func withTrojan(c *chip.Chip, cfg Config, ch chip.Channels, k trojan.Kind, n, cycles int) (*dualSet, error) {
	if err := c.SetTrojan(k, true); err != nil {
		return nil, err
	}
	set, err := captureSet(c, cfg, ch, n, cycles)
	if derr := c.SetTrojan(k, false); derr != nil && err == nil {
		err = derr
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %v population: %w", k, err)
	}
	return set, nil
}
