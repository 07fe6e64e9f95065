package chip

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"emtrust/internal/aes"
	"emtrust/internal/analog"
	"emtrust/internal/logic"
	"emtrust/internal/power"
	"emtrust/internal/trojan"
)

// Batched capture: up to logic.MaxLanes plaintext lanes, each from its
// own start chip's current state, run through one bit-parallel wide
// simulation instead of N scalar ones. The pipeline snapshots each
// distinct start chip once, then simulates every lane, one uint64 word
// per net with one start state per lane bit. Per-lane toggle extraction
// books each toggle word on flux lane recorders that share the chip
// recorder's charge tables and coil weights, and each lane projects its
// cycle's per-tile charges onto the sensor and probe coils, as the
// scalar capture's recorder does with the same code, so every lane's
// emf is bit-identical to an independent scalar capture from its start
// chip (pinned by the batch and determinism tests at every worker/lane
// count). Batched lanes are random-plaintext traces that never repeat,
// so they neither look up nor store capture-cache entries.
//
// Batch captures are side-effect-free on every chip: the wide engine is
// separate simulation state, so no start chip's simulator, recorder or
// analog Trojan moves, and the receiver's own state stays where it was.
// Returned captures carry no Tiles (per-tile current waveforms): lanes
// never build them; consumers that need Tiles use the scalar
// CapturePT/CaptureIdle.

// batchLanes caps how many lanes one wide simulation carries; 0 (the
// default) means logic.MaxLanes.
var batchLanes atomic.Int32

// BatchLanes returns the effective lane cap for batched captures,
// between 1 and logic.MaxLanes.
func BatchLanes() int {
	v := int(batchLanes.Load())
	if v <= 0 || v > logic.MaxLanes {
		return logic.MaxLanes
	}
	return v
}

// SetBatchLanes overrides the lane cap (0 restores the MaxLanes
// default) and returns a function restoring the previous cap. Tests use
// it to pin batched output bit-identical across lane counts.
func SetBatchLanes(n int) (restore func()) {
	old := batchLanes.Swap(int32(n))
	return func() { batchLanes.Store(old) }
}

// batchLane is one lane: its start state and plaintext.
type batchLane struct {
	pre state
	pt  [16]byte
}

// CaptureBatch is CaptureLanes with every lane starting from c: lane i
// encrypts pts[i] under key from the chip's current state.
func (c *Chip) CaptureBatch(pts [][]byte, key []byte, cycles int) ([]*Capture, error) {
	from := make([]*Chip, len(pts))
	for i := range from {
		from[i] = c
	}
	return c.CaptureLanes(from, pts, key, cycles)
}

// CaptureLanes runs lane i's encryption of pts[i] under key from
// from[i]'s current state and returns one fresh *Capture per lane.
// Every start chip must share c's design. The lanes simulate on c's
// wide engine in chunks of BatchLanes, or as scalar captures on a
// scratch clone of c when the netlist is too wide to compile; the
// capture cache is neither read nor written. No chip advances and no
// start chip is written, so concurrent calls may share start chips,
// their receivers among them; each receiver runs one call at a time.
func (c *Chip) CaptureLanes(from []*Chip, pts [][]byte, key []byte, cycles int) ([]*Capture, error) {
	if len(from) != len(pts) {
		return nil, fmt.Errorf("chip: %d start chips for %d lanes", len(from), len(pts))
	}
	if len(pts) == 0 {
		return nil, nil
	}
	if len(key) != 16 {
		return nil, fmt.Errorf("chip: need 16-byte key")
	}
	if err := checkCycles(cycles); err != nil {
		return nil, err
	}
	var keyA [16]byte
	copy(keyA[:], key)
	starts := make(map[*Chip]state)
	lanes := make([]batchLane, len(pts))
	for i, pt := range pts {
		if len(pt) != 16 {
			return nil, fmt.Errorf("chip: lane %d: need 16-byte pt", i)
		}
		f := from[i]
		if f == nil || f.design != c.design {
			return nil, fmt.Errorf("chip: lane %d starts from no chip of this design", i)
		}
		st, ok := starts[f]
		if !ok {
			st = f.snapshot()
			starts[f] = st
		}
		lanes[i].pre = st
		copy(lanes[i].pt[:], pt)
	}
	out := make([]*Capture, len(pts))
	if !c.sim.Compiled() {
		if err := c.runScalarBatch(lanes, keyA, cycles, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	n := BatchLanes()
	for lo := 0; lo < len(lanes); lo += n {
		hi := min(lo+n, len(lanes))
		if err := c.runWide(lanes[lo:hi], keyA, cycles, out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ensureWide lazily builds the chip's wide engine and grows the pooled
// flux lane recorders, analog-Trojan scratch and lane-retirement state
// to the given lane count. The lanes share the chip recorder's per-cell
// charge, tile and coil tables, so they book exactly the flux a scalar
// capture does.
func (c *Chip) ensureWide(lanes int) error {
	if c.wide == nil {
		w, err := c.sim.Wide()
		if err != nil {
			return err
		}
		c.wide = w
	}
	for len(c.recs) < lanes {
		c.recs = append(c.recs, c.rec.FluxLane())
	}
	if len(c.a2s) < lanes {
		c.a2s = make([]analog.A2, lanes)
	}
	if len(c.watch) < lanes {
		c.watch = append(c.watch, make([]laneWatch, lanes-len(c.watch))...)
	}
	return nil
}

// runWide simulates up to MaxLanes lanes, each from its own start
// state, as one wide capture and writes lane l's capture to out[l]. The
// capture sequence mirrors the scalar encryption capture exactly: idle
// lead-in tick, per-lane plaintext with broadcast key and start pulse,
// load edge, then the remaining cycles — with the T2 crowbar hook
// applied per lane from the lane's net word each cycle, and the A2
// charge pump stepped on each lane whose start state armed it. From the
// load edge on, a lane whose registers repeat retires (retire.go), and
// the run stops once every lane has.
func (c *Chip) runWide(batch []batchLane, key [16]byte, cycles int, out []*Capture) error {
	lanes := len(batch)
	if err := c.ensureWide(lanes); err != nil {
		return err
	}
	w := c.wide
	sts := make([]*logic.State, lanes)
	for l, b := range batch {
		sts[l] = b.pre.sim
	}
	if err := w.LoadStates(sts); err != nil {
		return err
	}
	recs := c.recs[:lanes]
	a2s := c.a2s[:lanes]
	lws := c.watch[:lanes]
	all := ^uint64(0) >> uint(64-lanes)
	live := all      // lanes still simulated, booked and flushed
	var armed uint64 // lanes whose analog Trojan runs
	for l, b := range batch {
		recs[l].Begin(cycles)
		a2s[l] = b.pre.a2
		if c.a2 != nil && b.pre.a2On {
			armed |= 1 << uint(l)
		}
		lws[l] = laneWatch{regs: lws[l].regs}
	}
	// Per-lane toggle extraction: diff = old^new marks the lanes that
	// changed; each set bit books the cell's switching charge on that
	// lane's recorder, in the same order a scalar capture would.
	w.OnWideToggle = power.WideToggles(recs)
	defer func() { w.OnWideToggle = nil }()

	t2, hasT2 := c.trojans[trojan.T2LeakageCurrent]
	tick := func() error {
		w.Tick()
		if hasT2 {
			on := w.NetWord(t2.Active) &^ w.NetWord(t2.LeakWire) & live
			amps := c.cfg.Power.CrowbarCurrent * float64(t2.CrowbarPairs)
			for ; on != 0; on &= on - 1 {
				recs[bits.TrailingZeros64(on)].AddStaticCurrent(c.t2Tile, amps)
			}
		}
		if armed != 0 {
			vw := w.NetWord(c.a2Victim)
			for m := armed; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				res := a2s[l].Step(uint8(vw >> uint(l) & 1))
				if res.Pumped {
					recs[l].AddFastToggles(c.a2Tile, 1, c.cfg.A2.PumpCharge)
				}
				if res.FastToggles > 0 {
					recs[l].AddFastToggles(c.a2Tile, res.FastToggles, c.cfg.A2.TriggerCharge)
				}
			}
		}
		for m := live; m != 0; m &= m - 1 {
			if err := recs[bits.TrailingZeros64(m)].EndCycle(); err != nil {
				return err
			}
		}
		return nil
	}

	if err := tick(); err != nil { // cycle 0: idle lead-in
		return err
	}
	laneBits := make([][]uint8, lanes)
	for l, b := range batch {
		laneBits[l] = aes.BytesToBits(b.pt[:])
	}
	if err := w.SetPortLanesBits(aes.PortPT, laneBits); err != nil {
		return err
	}
	if err := w.SetPortBitsAll(aes.PortKey, aes.BytesToBits(key[:])); err != nil {
		return err
	}
	if err := w.SetPortUintAll(aes.PortStart, 1); err != nil {
		return err
	}
	w.Settle()
	if err := tick(); err != nil { // load edge
		return err
	}
	if err := w.SetPortUintAll(aes.PortStart, 0); err != nil {
		return err
	}
	w.Settle()
	// The ports are fixed from here on: watch the registers. A lane
	// retires only after its cycle's T2 hook and flush, which read its
	// net words.
	w.Watch(flopKey)
	for i := 2; i < cycles && live != 0; i++ {
		if err := tick(); err != nil {
			return err
		}
		if gone := repeating(w, lws, live&^armed, i); gone != 0 {
			w.Retire(gone)
			live &^= gone
		}
	}

	retired := all &^ live
	for l := range out {
		if retired>>uint(l)&1 == 1 {
			if err := recs[l].Repeat(lws[l].period); err != nil {
				return err
			}
		}
		out[l] = recorded(recs[l])
	}
	return nil
}

// runScalarBatch is the fallback for netlists too wide to compile (and
// the batch layer's semantic ground truth, which the batch tests pin
// the wide path against on a reference-engine chip): each lane runs a
// plain scalar capture on a scratch clone of c restored to the lane's
// start state, so no chip moves, and writes its capture, without Tiles,
// to out.
func (c *Chip) runScalarBatch(lanes []batchLane, key [16]byte, cycles int, out []*Capture) error {
	x := c.Clone()
	for i, l := range lanes {
		x.restore(l.pre)
		cap, err := x.capture(l.pt, key, cycles, false)
		if err != nil {
			return err
		}
		out[i] = &Capture{Sensor: cap.Sensor, Probe: cap.Probe, Dt: cap.Dt}
	}
	return nil
}

// cacheEntry turns the scalar capture that just ran from pre into a
// capture-cache entry: the waveforms without Tiles, plus the chip's
// post-capture state.
func (c *Chip) cacheEntry(pre *logic.State, cap *Capture) *captureEntry {
	post := c.snapshot()
	return &captureEntry{
		pre:  pre,
		cap:  &Capture{Sensor: cap.Sensor, Probe: cap.Probe, Dt: cap.Dt},
		post: post.sim, postA2: post.a2, postHash: post.sim.ValueHash(),
	}
}

// CaptureChain runs count consecutive fixed-stimulus captures — the
// serial state-evolution chain of a fixed-plaintext capture set, where
// capture j starts from capture j-1's post state — and returns them in
// order, advancing the chip by exactly count captures. Each step is
// replayed from the capture cache when this exact (state, stimulus)
// capture has run before (a dormant chip's fixed point collapses the
// whole chain to one simulation; an active Trojan's orbit replays after
// its first traversal), and simulated scalar otherwise. Waveforms and
// the chip's state trajectory are bit-identical to count serial
// CapturePT calls. Chain captures carry no Tiles. A count <= 0 is
// clamped to a nil chain.
func (c *Chip) CaptureChain(pt, key []byte, cycles, count int) ([]*Capture, error) {
	if len(pt) != 16 || len(key) != 16 {
		return nil, fmt.Errorf("chip: need 16-byte pt and key")
	}
	var ptA, keyA [16]byte
	copy(ptA[:], pt)
	copy(keyA[:], key)
	return c.chain(ptA, keyA, cycles, count, false)
}

// CaptureIdleChain is CaptureChain for idle (no-encryption) captures:
// count consecutive CaptureIdle calls run as one serial chain through
// the process-wide capture cache. A dormant chip's idle fixed point
// collapses the whole chain to at most one simulation — on a fresh chip
// of an already-seen configuration, to none at all, since the chip
// build cache makes identical chips start from the identical state the
// cache has already recorded. An armed A2 whose charge pump is still
// integrating genuinely changes state every capture, so each step along
// that orbit simulates once process-wide and replays forever after.
// Waveforms, the simulator state trajectory, and the analog Trojan
// state are bit-identical to count serial CaptureIdle calls. Chain
// captures carry no Tiles. A count <= 0 is clamped to a nil chain.
func (c *Chip) CaptureIdleChain(cycles, count int) ([]*Capture, error) {
	return c.chain([16]byte{}, [16]byte{}, cycles, count, true)
}

// chain is the replay loop behind CaptureChain and CaptureIdleChain:
// each step replays its capture-cache entry or runs the scalar capture
// and stores it. Every step starts from the previous entry's post
// state, so a run of replays touches no simulator state; the chip
// takes the run's end once, before the next simulated step or at the
// end of the chain.
func (c *Chip) chain(pt, key [16]byte, cycles, count int, idle bool) ([]*Capture, error) {
	if count <= 0 {
		return nil, nil
	}
	caps := make([]*Capture, count)
	pre := c.snapshot()
	hash := pre.sim.ValueHash()
	cyc := c.sim.Cycle()
	var pending *captureEntry // the last replay the chip has not taken
	for j := range caps {
		ck := c.captureCacheKey(pt, key, cycles, idle, pre, hash)
		e := lookupCapture(ck, pre.sim)
		if e != nil {
			pending = e
		} else {
			if pending != nil {
				c.takeReplay(pending, cyc)
				pending = nil
			}
			cap, err := c.capture(pt, key, cycles, idle)
			if err != nil {
				return nil, err
			}
			e = storeCapture(ck, c.cacheEntry(pre.sim, cap))
		}
		cyc += cycles
		caps[j] = e.cap
		pre = state{sim: e.post, a2: e.postA2, a2On: pre.a2On}
		hash = e.postHash
	}
	if pending != nil {
		c.takeReplay(pending, cyc)
	}
	return caps, nil
}

// takeReplay moves the chip to a replayed entry's post state, with the
// cycle counter at cyc.
func (c *Chip) takeReplay(e *captureEntry, cyc int) {
	c.sim.SetState(e.post)
	c.sim.SetCycle(cyc)
	if c.a2 != nil {
		*c.a2 = e.postA2
	}
}
