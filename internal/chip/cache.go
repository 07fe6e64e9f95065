package chip

import (
	"sync"
	"sync/atomic"

	"emtrust/internal/aes"
	"emtrust/internal/analog"
	"emtrust/internal/emfield"
	"emtrust/internal/layout"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
	"emtrust/internal/trojan"
)

// Two process-wide replay caches: chip builds, and the steps of
// CaptureChain and CaptureIdleChain (batch.go; batched lanes never
// touch the capture cache). Both exploit the same fact the determinism
// contract rests on: a capture is a pure function of (design,
// pre-capture state, stimulus) — never of the chip's seed; see
// captureKey — so replaying one is indistinguishable from
// re-simulating it. Caches therefore never change results — they only
// short-circuit identical computations — and worker/lane counts cannot
// influence outputs through them. Entries are verified by exact state
// comparison (ValuesEqual), never by hash alone.

// buildKey identifies one immutable chip structure: the full build
// configuration with the random seed zeroed, since Seed feeds only the
// chip's noise/plaintext streams, never the netlist, placement or
// couplings.
type buildKey struct {
	cfg Config
}

// built holds the immutable parts of a chip build, shared by every chip
// constructed with an equivalent configuration. The template simulator
// is never ticked; chips fork it, which shares the compiled program and
// levelization while giving each chip private mutable state. id is the
// build's design id (see captureKey).
type built struct {
	id       uint64
	n        *netlist.Netlist
	core     *aes.Core
	fp       *layout.Floorplan
	sensor   *emfield.Coupling
	probe    *emfield.Coupling
	trojans  map[trojan.Kind]*trojan.Instance
	template *logic.Simulator
	t2Tile   int
	a2Victim netlist.Net
	a2Tile   int
}

var buildCache = struct {
	sync.Mutex
	m map[buildKey]*built
}{m: make(map[buildKey]*built)}

// maxBuilds bounds the build cache; experiments touch a handful of
// configurations per process, so eviction is a wholesale drop.
const maxBuilds = 8

// designIDs hands out design ids: one per chip build and per stuck-at
// variant, unique for the process lifetime.
var designIDs atomic.Uint64

// Cache traffic counters. Monotonic over the process lifetime (resets
// drop entries, not counters), so concurrent readers can difference
// before/after snapshots without racing a zeroing write.
var cacheStats struct {
	buildHits, buildMisses     atomic.Uint64
	captureHits, captureMisses atomic.Uint64
	captureEvictions           atomic.Uint64
}

// CacheStats is a point-in-time snapshot of the replay caches' traffic.
// A "miss" is a lookup that found no usable entry, whether that capture
// never ran or its entry was evicted, so hits+misses equals the number
// of lookups, not the number of simulations. CaptureEvictions counts
// the entries a full capture cache dropped (ResetCaptureCache is not
// counted).
type CacheStats struct {
	BuildHits, BuildMisses     uint64
	CaptureHits, CaptureMisses uint64
	CaptureEvictions           uint64
}

// Stats returns the current process-wide cache counters.
func Stats() CacheStats {
	return CacheStats{
		BuildHits:        cacheStats.buildHits.Load(),
		BuildMisses:      cacheStats.buildMisses.Load(),
		CaptureHits:      cacheStats.captureHits.Load(),
		CaptureMisses:    cacheStats.captureMisses.Load(),
		CaptureEvictions: cacheStats.captureEvictions.Load(),
	}
}

func lookupBuild(key buildKey) *built {
	buildCache.Lock()
	defer buildCache.Unlock()
	b := buildCache.m[key]
	if b != nil {
		cacheStats.buildHits.Add(1)
	} else {
		cacheStats.buildMisses.Add(1)
	}
	return b
}

func storeBuild(key buildKey, b *built) {
	buildCache.Lock()
	defer buildCache.Unlock()
	if len(buildCache.m) >= maxBuilds {
		buildCache.m = make(map[buildKey]*built)
	}
	buildCache.m[key] = b
}

// captureKey identifies one capture as a pure function: the design id,
// the stimulus, the window length, and the analog-Trojan state. The
// design id stands for everything a capture reads that is fixed per
// build (netlist, recorder configuration and floorplan, couplings,
// Trojan instances and tiles, A2 configuration): New and Clone carry
// their build's id and WithStuckAt takes a fresh one. Chips at any seed
// share entries, since no capture draws randomness, and
// an entry holds no reference to its design. The gate-level pre-state
// rides as a hash here and is verified exactly against each candidate
// entry.
type captureKey struct {
	design  uint64
	pt      [16]byte
	key     [16]byte
	cycles  int
	idle    bool
	a2      analog.A2
	a2On    bool
	simHash uint64
}

// captureEntry is one memoized chain step: the exact pre-state it
// applies to, the clean waveforms, a stable *Capture handle (Tiles nil —
// replayed captures do not carry per-tile currents), and the
// post-capture state so a replay can advance a chip without
// simulating. It is immutable once stored, so a chain can start its
// next step from post without copying it.
type captureEntry struct {
	pre      *logic.State
	cap      *Capture
	post     *logic.State
	postA2   analog.A2
	postHash uint64
}

var captureCache = struct {
	sync.Mutex
	m     map[captureKey][]*captureEntry
	count int
}{m: make(map[captureKey][]*captureEntry)}

// maxCaptureEntries bounds the capture cache (an entry holds two state
// snapshots and two waveforms, ~100 KB on the default design). A store
// into a full cache drops every entry, as the build cache does: a seed
// sweep's chains need a few dozen entries; correctness never depends on
// residency.
const maxCaptureEntries = 256

// lookupCapture returns the entry matching key with an exactly equal
// pre-state, or nil.
func lookupCapture(key captureKey, pre *logic.State) *captureEntry {
	captureCache.Lock()
	defer captureCache.Unlock()
	for _, e := range captureCache.m[key] {
		if e.pre.ValuesEqual(pre) {
			cacheStats.captureHits.Add(1)
			return e
		}
	}
	cacheStats.captureMisses.Add(1)
	return nil
}

// storeCapture inserts an entry unless an equivalent one is already
// present (concurrent workers may race to fill the same key; both
// compute identical results, so either copy serves).
func storeCapture(key captureKey, e *captureEntry) *captureEntry {
	captureCache.Lock()
	defer captureCache.Unlock()
	for _, have := range captureCache.m[key] {
		if have.pre.ValuesEqual(e.pre) {
			return have
		}
	}
	if captureCache.count >= maxCaptureEntries {
		cacheStats.captureEvictions.Add(uint64(captureCache.count))
		captureCache.m, captureCache.count = make(map[captureKey][]*captureEntry), 0
	}
	captureCache.m[key] = append(captureCache.m[key], e)
	captureCache.count++
	return e
}

// ResetCaptureCache drops every memoized capture result. Outputs never
// depend on cache contents, so this is purely a way for tests and
// benchmarks to force fresh simulation paths.
func ResetCaptureCache() {
	captureCache.Lock()
	captureCache.m = make(map[captureKey][]*captureEntry)
	captureCache.count = 0
	captureCache.Unlock()
}

// captureCacheKey assembles the cache key for a capture from this
// chip's design id, the pre state and the given stimulus. simHash must
// be the ValueHash of pre.sim.
func (c *Chip) captureCacheKey(pt, key [16]byte, cycles int, idle bool, pre state, simHash uint64) captureKey {
	return captureKey{
		design: c.design, pt: pt, key: key, cycles: cycles, idle: idle,
		a2: pre.a2, a2On: pre.a2On, simHash: simHash,
	}
}
