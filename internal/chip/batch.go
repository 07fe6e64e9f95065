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

// Batched capture: up to logic.MaxLanes capture lanes — (pre-state,
// plaintext) pairs — run through one bit-parallel wide simulation
// instead of N scalar ones. The pipeline deduplicates identical lanes,
// replays lanes the process-wide capture cache has seen before, and
// simulates only the remainder, one uint64 word per net, with per-lane
// toggle extraction feeding per-lane power recorders so every lane's
// waveform is bit-identical to an independent scalar capture (pinned by
// the batch and determinism tests at every worker/lane count).
//
// Batch captures are side-effect-free on the chip: the wide engine is
// separate simulation state, so the chip's own simulator, recorder and
// analog Trojan stay where they were. Returned captures carry no Tiles
// (per-tile current waveforms) — lanes share pooled recorder buffers
// and cached captures have none to give; consumers that need Tiles use
// the scalar CapturePT/CaptureIdle.

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

// nextCaptureSeq hands out process-unique capture identities; see
// Capture.Seq.
var captureSeq atomic.Uint64

func nextCaptureSeq() uint64 { return captureSeq.Add(1) }

// batchGroup is one deduplicated (pre-state, plaintext) capture lane
// and the input indices that collapse onto it.
type batchGroup struct {
	snap  *Snapshot
	hash  uint64
	pt    [16]byte
	ck    captureKey
	idx   []int
	entry *captureEntry
}

// CaptureBatch fans up to 64 plaintext lanes from the chip's current
// state through one wide simulation: lane i encrypts pts[i] under key.
// It returns one *Capture per lane without advancing the chip's state.
func (c *Chip) CaptureBatch(pts [][]byte, key []byte, cycles int) ([]*Capture, error) {
	return c.CaptureBatchFrom(nil, pts, key, cycles)
}

// CaptureBatchFrom is CaptureBatch with per-lane starting states: lane
// i restores snaps[i] (taken on this chip or one sharing its design)
// before encrypting pts[i]. A nil snaps broadcasts the chip's current
// state to every lane. The cache may retain references to the
// snapshots' states, which Snapshot already promises are immutable.
func (c *Chip) CaptureBatchFrom(snaps []*Snapshot, pts [][]byte, key []byte, cycles int) ([]*Capture, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	if len(key) != 16 {
		return nil, fmt.Errorf("chip: need 16-byte key")
	}
	if err := checkCycles(cycles); err != nil {
		return nil, err
	}
	ptA := make([][16]byte, len(pts))
	for i, pt := range pts {
		if len(pt) != 16 {
			return nil, fmt.Errorf("chip: lane %d: need 16-byte pt", i)
		}
		copy(ptA[i][:], pt)
	}
	snaps, err := c.batchSnaps(snaps, len(pts))
	if err != nil {
		return nil, err
	}
	var keyA [16]byte
	copy(keyA[:], key)
	return c.captureBatch(snaps, ptA, keyA, cycles)
}

// batchSnaps normalizes the snapshot list: nil broadcasts the current
// state, otherwise one snapshot per lane.
func (c *Chip) batchSnaps(snaps []*Snapshot, n int) ([]*Snapshot, error) {
	if snaps == nil {
		cur := c.Snapshot()
		snaps = make([]*Snapshot, n)
		for i := range snaps {
			snaps[i] = cur
		}
		return snaps, nil
	}
	if len(snaps) != n {
		return nil, fmt.Errorf("chip: %d snapshots for %d lanes", len(snaps), n)
	}
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("chip: nil snapshot for lane %d", i)
		}
	}
	return snaps, nil
}

// captureBatch deduplicates the lanes, replays cached groups, simulates
// the rest in wide chunks (or scalar captures when the chip runs the
// reference engine), and maps group results back onto the input order.
func (c *Chip) captureBatch(snaps []*Snapshot, pts [][16]byte, key [16]byte, cycles int) ([]*Capture, error) {
	hashes := make(map[*Snapshot]uint64)
	var groups []*batchGroup
	var misses []*batchGroup
	for i, s := range snaps {
		h, ok := hashes[s]
		if !ok {
			h = s.sim.ValueHash()
			hashes[s] = h
		}
		var g *batchGroup
		for _, have := range groups {
			if have.pt != pts[i] {
				continue
			}
			if have.snap == s || (have.hash == h && have.snap.a2Enabled == s.a2Enabled &&
				have.snap.a2 == s.a2 && have.snap.sim.ValuesEqual(s.sim)) {
				g = have
				break
			}
		}
		if g == nil {
			g = &batchGroup{
				snap: s, hash: h, pt: pts[i],
				ck: c.captureCacheKey(pts[i], key, cycles, false, s.a2, s.a2Enabled, h),
			}
			g.entry = lookupCapture(g.ck, s.sim)
			groups = append(groups, g)
			if g.entry == nil {
				misses = append(misses, g)
			}
		}
		g.idx = append(g.idx, i)
	}
	if len(misses) > 0 {
		if c.sim.Compiled() {
			lanes := BatchLanes()
			for lo := 0; lo < len(misses); lo += lanes {
				hi := lo + lanes
				if hi > len(misses) {
					hi = len(misses)
				}
				if err := c.runWide(misses[lo:hi], key, cycles); err != nil {
					return nil, err
				}
			}
		} else if err := c.runScalarBatch(misses, key, cycles); err != nil {
			return nil, err
		}
	}
	out := make([]*Capture, len(snaps))
	for _, g := range groups {
		for _, i := range g.idx {
			out[i] = g.entry.cap
		}
	}
	return out, nil
}

// ensureWide lazily builds the chip's wide engine and grows the pooled
// per-lane recorders and analog-Trojan scratch to the given lane count.
// Pooled recorders are built from the same configuration and floorplan
// as the chip's own, so their per-cell charge tables are identical and
// lane waveforms match scalar captures bit for bit.
func (c *Chip) ensureWide(lanes int) error {
	if c.wide == nil {
		w, err := c.sim.Wide()
		if err != nil {
			return err
		}
		c.wide = w
	}
	for len(c.recs) < lanes {
		r, err := power.NewRecorder(c.cfg.Power, c.fp)
		if err != nil {
			return err
		}
		c.recs = append(c.recs, r)
	}
	if len(c.a2s) < lanes {
		c.a2s = make([]analog.A2, lanes)
		c.a2on = make([]bool, lanes)
	}
	return nil
}

// runWide simulates up to MaxLanes miss groups as lanes of one wide
// capture, stores each lane's result in the capture cache and fills the
// groups' entries. The capture sequence mirrors the scalar encryption
// capture exactly: idle lead-in tick, per-lane plaintext with broadcast
// key and start pulse, load edge, then the remaining cycles — with the
// T2 crowbar and A2 charge-pump hooks applied per lane from the lane's
// net word each cycle.
func (c *Chip) runWide(groups []*batchGroup, key [16]byte, cycles int) error {
	lanes := len(groups)
	if err := c.ensureWide(lanes); err != nil {
		return err
	}
	w := c.wide
	sts := make([]*logic.State, lanes)
	for l, g := range groups {
		sts[l] = g.snap.sim
	}
	if err := w.LoadStates(sts); err != nil {
		return err
	}
	recs := c.recs[:lanes]
	a2s := c.a2s[:lanes]
	a2on := c.a2on[:lanes]
	for l, g := range groups {
		recs[l].Begin(cycles)
		if c.a2 != nil {
			a2s[l] = g.snap.a2
		}
		a2on[l] = g.snap.a2Enabled && c.a2 != nil
	}
	// Per-lane toggle extraction: diff = old^new marks the lanes that
	// changed; each set bit books the cell's switching charge on that
	// lane's recorder, in the same order a scalar capture would.
	w.OnWideToggle = func(cell int32, diff, nv uint64) {
		for diff != 0 {
			l := bits.TrailingZeros64(diff)
			diff &= diff - 1
			recs[l].OnToggle(int(cell), nv>>uint(l)&1 == 1)
		}
	}
	defer func() { w.OnWideToggle = nil }()

	t2, hasT2 := c.trojans[trojan.T2LeakageCurrent]
	tick := func() error {
		w.Tick()
		if hasT2 {
			on := w.NetWord(t2.Active) &^ w.NetWord(t2.LeakWire)
			amps := c.cfg.Power.CrowbarCurrent * float64(t2.CrowbarPairs)
			for on != 0 {
				l := bits.TrailingZeros64(on)
				on &= on - 1
				if l < lanes {
					recs[l].AddStaticCurrent(c.t2Tile, amps)
				}
			}
		}
		if c.a2 != nil {
			vw := w.NetWord(c.a2Victim)
			for l := 0; l < lanes; l++ {
				if !a2on[l] {
					continue
				}
				res := a2s[l].Step(uint8(vw >> uint(l) & 1))
				if res.Pumped {
					recs[l].AddFastToggles(c.a2Tile, 1, c.cfg.A2.PumpCharge)
				}
				if res.FastToggles > 0 {
					recs[l].AddFastToggles(c.a2Tile, res.FastToggles, c.cfg.A2.TriggerCharge)
				}
			}
		}
		for l := range recs {
			if err := recs[l].EndCycle(); err != nil {
				return err
			}
		}
		return nil
	}

	if err := tick(); err != nil { // cycle 0: idle lead-in
		return err
	}
	laneBits := make([][]uint8, lanes)
	for l, g := range groups {
		laneBits[l] = aes.BytesToBits(g.pt[:])
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
	for i := 2; i < cycles; i++ {
		if err := tick(); err != nil {
			return err
		}
	}

	dt := recs[0].Dt()
	for l, g := range groups {
		currents := recs[l].Currents()
		post := w.LaneState(l)
		var postA2 analog.A2
		if c.a2 != nil {
			postA2 = a2s[l]
		}
		e := &captureEntry{
			pre: g.snap.sim,
			cap: &Capture{
				Sensor: c.sensor.EMF(currents, dt),
				Probe:  c.probe.EMF(currents, dt),
				Dt:     dt,
				seq:    nextCaptureSeq(),
			},
			post: post, postA2: postA2, postHash: post.ValueHash(),
		}
		g.entry = storeCapture(g.ck, e)
	}
	return nil
}

// runScalarBatch is the reference-engine fallback (and the batch
// layer's semantic ground truth, which the batch tests pin the wide
// path against): each miss group restores its snapshot and runs a plain
// scalar capture, after which the chip is rewound to where it was.
func (c *Chip) runScalarBatch(groups []*batchGroup, key [16]byte, cycles int) error {
	save := c.Snapshot()
	defer c.Restore(save)
	for _, g := range groups {
		c.Restore(g.snap)
		cap, err := c.capture(g.pt, key, cycles, false)
		if err != nil {
			return err
		}
		g.entry = storeCapture(g.ck, c.cacheEntry(g.snap.sim, cap))
	}
	return nil
}

// cacheEntry turns the scalar capture that just ran from pre into a
// capture-cache entry: the waveforms without Tiles under a fresh Seq,
// plus the chip's post-capture state.
func (c *Chip) cacheEntry(pre *logic.State, cap *Capture) *captureEntry {
	post := c.sim.State()
	postA2, _ := c.a2State()
	return &captureEntry{
		pre:  pre,
		cap:  &Capture{Sensor: cap.Sensor, Probe: cap.Probe, Dt: cap.Dt, seq: nextCaptureSeq()},
		post: post, postA2: postA2, postHash: post.ValueHash(),
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
// each step replays its capture-cache entry, advancing the chip to the
// entry's post state, or runs the scalar capture and stores it.
func (c *Chip) chain(pt, key [16]byte, cycles, count int, idle bool) ([]*Capture, error) {
	if count <= 0 {
		return nil, nil
	}
	caps := make([]*Capture, count)
	var hash uint64
	for j := range caps {
		pre := c.sim.State()
		if j == 0 {
			hash = pre.ValueHash()
		}
		a2v, a2On := c.a2State()
		ck := c.captureCacheKey(pt, key, cycles, idle, a2v, a2On, hash)
		e := lookupCapture(ck, pre)
		if e != nil {
			cyc := c.sim.Cycle()
			c.sim.SetState(e.post)
			c.sim.SetCycle(cyc + cycles)
			if c.a2 != nil {
				*c.a2 = e.postA2
			}
		} else {
			cap, err := c.capture(pt, key, cycles, idle)
			if err != nil {
				return nil, err
			}
			e = storeCapture(ck, c.cacheEntry(pre, cap))
		}
		caps[j] = e.cap
		hash = e.postHash
	}
	return caps, nil
}
