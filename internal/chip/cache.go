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

// Two process-wide replay caches complement the bit-parallel capture
// engine (batch.go). Both exploit the same fact the determinism
// contract rests on: a capture is a pure function of (design, config,
// pre-capture state, stimulus), so replaying one is indistinguishable
// from re-simulating it. Caches therefore never change results — they
// only short-circuit identical computations — and worker/lane counts
// cannot influence outputs through them. Entries are verified by exact
// state comparison (ValuesEqual), never by hash alone.

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
// levelization while giving each chip private mutable state.
type built struct {
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

// Cache traffic counters. Monotonic over the process lifetime (resets
// drop entries, not counters), so concurrent readers can difference
// before/after snapshots without racing a zeroing write.
var cacheStats struct {
	buildHits, buildMisses     atomic.Uint64
	captureHits, captureMisses atomic.Uint64
}

// CacheStats is a point-in-time snapshot of the replay caches' traffic.
// A "miss" is a lookup that found no usable entry — including the
// deliberate misses after a wholesale eviction — so hits+misses equals
// the number of lookups, not the number of simulations.
type CacheStats struct {
	BuildHits, BuildMisses     uint64
	CaptureHits, CaptureMisses uint64
}

// Stats returns the current process-wide cache counters.
func Stats() CacheStats {
	return CacheStats{
		BuildHits:     cacheStats.buildHits.Load(),
		BuildMisses:   cacheStats.buildMisses.Load(),
		CaptureHits:   cacheStats.captureHits.Load(),
		CaptureMisses: cacheStats.captureMisses.Load(),
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

// captureKey identifies one capture as a pure function: the design (by
// identity — stuck-at variants get fresh netlists), the build
// configuration, the stimulus, the window length, and the analog-Trojan
// state. The gate-level pre-state rides as a hash here and is verified
// exactly against each candidate entry.
type captureKey struct {
	n       *netlist.Netlist
	cfg     Config
	pt      [16]byte
	key     [16]byte
	cycles  int
	idle    bool
	a2      analog.A2
	a2On    bool
	simHash uint64
}

// captureEntry is one memoized capture: the exact pre-state it applies
// to, the clean waveforms, a stable *Capture handle (Tiles nil — batch
// and replayed captures do not carry per-tile currents), and the
// post-capture state so a replay can advance a chip without
// simulating.
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
// snapshots and two waveforms, ~100 KB on the default design). Eviction
// is a wholesale drop: correctness never depends on residency.
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
		captureCache.m = make(map[captureKey][]*captureEntry)
		captureCache.count = 0
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
// chip's identity, the pre state and the given stimulus. simHash must
// be the ValueHash of pre.sim.
func (c *Chip) captureCacheKey(pt, key [16]byte, cycles int, idle bool, pre state, simHash uint64) captureKey {
	return captureKey{
		n: c.n, cfg: c.cfg,
		pt: pt, key: key, cycles: cycles, idle: idle,
		a2: pre.a2, a2On: pre.a2On, simHash: simHash,
	}
}
