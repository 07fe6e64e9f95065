package logic

import (
	"fmt"
	"math/bits"

	"emtrust/internal/netlist"
)

// The wide engine is the bit-parallel counterpart of the compiled
// evaluator: up to MaxLanes independent stimulus lanes packed one bit
// per lane into a uint64 per net, pushed through the same program
// (instruction stream, rank order, fanout bitsets) as the scalar
// engine. One settle advances every lane at once; a rank is pending
// when ANY lane changed one of its inputs, and evaluation is
// word-parallel boolean algebra instead of a per-lane LUT lookup.
//
// Determinism contract: each lane of a WideState reproduces, bit for
// bit, the net values and the toggle stream of an independent scalar
// Simulator run of the same stimulus. Lanes that did not change at a
// visited rank emit nothing (the per-lane toggle filter is the diff
// word old^new), and toggles are extracted in exactly the scalar
// order — flip-flop commits in sequential-cell order at the clock
// edge, then combinational toggles in ascending rank during settle —
// so order-sensitive consumers (power.Recorder's float accumulation)
// see the same sequence per lane as a scalar run. This holds at any
// lane count, including partial last words; the differential tests in
// wide_test.go pin it across 300 random netlists.

// MaxLanes is the number of independent stimulus lanes a WideState
// packs into each 64-bit net word.
const MaxLanes = 64

// Word-parallel gate algebra: each opcode is lowered to input/output
// inversion masks plus a class selector (AND-class, XOR-class,
// MUX-class), so the settle loop evaluates every gate type with one
// branch-free expression:
//
//	a = v[in0]^inv0; b = v[in1]^inv1; s = v[in2]
//	nv = ((a&b) &^ (mx|xr)) | ((a^b)&xr) | (((a&^s)|(b&s))&mx)
//	nv = (nv^invOut) & laneMask
//
// Single-input cells (Buf, Inv) read net 0 — the reserved, never
// driven, constant-0 net — through in1 and are encoded as OR/NOR
// (a|0 = a), exactly mirroring how evalLUT absorbs unused pins.
var (
	wideI0 [16]uint64 // input-0 inversion mask per opcode
	wideI1 [16]uint64 // input-1 inversion mask per opcode
	wideIO [16]uint64 // output inversion mask per opcode
	wideXR [16]uint64 // XOR-class selector per opcode
	wideMX [16]uint64 // MUX-class selector per opcode
)

func init() {
	const m = ^uint64(0)
	set := func(op netlist.CellType, i0, i1, io, xr, mx uint64) {
		wideI0[op], wideI1[op], wideIO[op], wideXR[op], wideMX[op] = i0, i1, io, xr, mx
	}
	set(netlist.TieLo, 0, 0, 0, 0, 0) // 0&0
	set(netlist.TieHi, 0, 0, m, 0, 0) // ~(0&0)
	set(netlist.Buf, m, m, m, 0, 0)   // a|0 via ~(~a&~0)
	set(netlist.Inv, m, m, 0, 0, 0)   // ~(a|0)
	set(netlist.And2, 0, 0, 0, 0, 0)
	set(netlist.Nand2, 0, 0, m, 0, 0)
	set(netlist.Or2, m, m, m, 0, 0)
	set(netlist.Nor2, m, m, 0, 0, 0)
	set(netlist.Xor2, 0, 0, 0, m, 0)
	set(netlist.Xnor2, 0, 0, m, m, 0)
	set(netlist.Mux2, 0, 0, 0, 0, m)
}

// WideState is a bit-parallel multi-lane simulation state over a
// compiled program. It shares the immutable program (and netlist) with
// the Simulator it was created from and owns only per-lane mutable
// state, so one WideState per goroutine is safe alongside the parent.
type WideState struct {
	n    *netlist.Netlist
	prog *program

	lanes int
	mask  uint64 // low `lanes` bits set

	values []uint64 // per-net lane words
	ov     []uint64 // per-rank output cache, ov[r] == values[out(r)]
	newQ   []uint64 // two-phase flip-flop scratch

	dirty      []uint64
	minW, maxW int

	cycle int

	// OnWideToggle receives every cell-output toggle as (cell, diff,
	// nv): diff has a bit set for each lane that changed, nv is the new
	// lane word. Lane l's scalar-equivalent event is (cell, nv>>l&1) for
	// each set bit l of diff, and callbacks arrive in the scalar toggle
	// order of every lane simultaneously. Nil drops the toggles.
	OnWideToggle func(cell int32, diff, nv uint64)
}

// Wide creates a bit-parallel lane engine over the simulator's compiled
// program, loaded with a single lane holding the simulator's current
// state. It fails for reference-engine simulators (no program to run).
func (s *Simulator) Wide() (*WideState, error) {
	if s.prog == nil {
		return nil, fmt.Errorf("logic: %s runs the reference engine; wide evaluation needs the compiled program", s.n.Name)
	}
	w := &WideState{
		n:      s.n,
		prog:   s.prog,
		values: make([]uint64, len(s.values)),
		ov:     make([]uint64, len(s.prog.ins)),
		newQ:   make([]uint64, len(s.prog.seqCell)),
		dirty:  make([]uint64, s.prog.nwords),
	}
	if err := w.LoadStates([]*State{s.State()}); err != nil {
		return nil, err
	}
	return w, nil
}

// LoadStates loads one scalar snapshot per lane (1 to MaxLanes lanes)
// and schedules a full first settle, exactly like restoring a snapshot
// into a scalar simulator. The cycle counter restarts at the first
// lane's. Lanes that pass the first lane's *State cost no comparison.
func (w *WideState) LoadStates(sts []*State) error {
	if len(sts) == 0 || len(sts) > MaxLanes {
		return fmt.Errorf("logic: wide load of %d lanes (want 1..%d)", len(sts), MaxLanes)
	}
	for l, st := range sts {
		if len(st.values) != len(w.values) {
			return fmt.Errorf("logic: lane %d state has %d nets, wide state %d", l, len(st.values), len(w.values))
		}
	}
	w.lanes = len(sts)
	w.mask = ^uint64(0) >> uint(64-w.lanes)
	var others uint64 // lanes loading a snapshot other than sts[0]
	for l := 1; l < len(sts); l++ {
		if sts[l] != sts[0] {
			others |= 1 << uint(l)
		}
	}
	base := sts[0].values
	for i := range w.values {
		var word uint64
		if base[i] != 0 {
			word = w.mask
		}
		for m := others; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if sts[l].values[i] != base[i] {
				word ^= 1 << uint(l)
			}
		}
		w.values[i] = word
	}
	p := w.prog
	for r := range p.ins {
		w.ov[r] = w.values[p.ins[r].outOp&netMask]
	}
	w.markAll()
	w.cycle = sts[0].cycle
	return nil
}

func (w *WideState) markAll() {
	nc := len(w.prog.ins)
	if nc == 0 {
		w.minW, w.maxW = len(w.dirty), -1
		return
	}
	for i := range w.dirty {
		w.dirty[i] = ^uint64(0)
	}
	if rem := nc & 63; rem != 0 {
		w.dirty[len(w.dirty)-1] = 1<<uint(rem) - 1
	}
	w.minW, w.maxW = 0, len(w.dirty)-1
}

func (w *WideState) markFanout(net int32) {
	p := w.prog
	for _, fr := range p.fanRank[p.fanStart[net]:p.fanStart[net+1]] {
		wd := int(fr) >> 6
		w.dirty[wd] |= 1 << (uint(fr) & 63)
		if wd < w.minW {
			w.minW = wd
		}
		if wd > w.maxW {
			w.maxW = wd
		}
	}
}

// setNetWord drives one net's lane word (masked) and schedules its
// readers when any lane changed.
func (w *WideState) setNetWord(n netlist.Net, word uint64) {
	word &= w.mask
	if w.values[n] == word {
		return
	}
	w.values[n] = word
	if r := w.prog.netRank[n]; r >= 0 {
		w.ov[r] = word
	}
	w.markFanout(int32(n))
}

// NetWord returns a net's lane word: bit l is lane l's value.
func (w *WideState) NetWord(n netlist.Net) uint64 { return w.values[n] }

// AddNetOnes accumulates, per net, how many active lanes currently hold
// the value 1: counts[net] += popcount(word & laneMask) for every net.
// counts must have NumNets entries. Calling it once per simulated cycle
// turns a wide run into a signal-probability profiler — the per-net
// activity statistics behind rare-net Trojan trigger selection — at one
// popcount per net per cycle instead of one scan per lane.
func (w *WideState) AddNetOnes(counts []uint64) {
	if len(counts) != len(w.values) {
		panic(fmt.Sprintf("logic: AddNetOnes needs %d counters, got %d", len(w.values), len(counts)))
	}
	for i, v := range w.values {
		counts[i] += uint64(bits.OnesCount64(v & w.mask))
	}
}

// NetLane returns one lane's value (0 or 1) of a net.
func (w *WideState) NetLane(n netlist.Net, lane int) uint8 {
	return uint8(w.values[n] >> uint(lane) & 1)
}

// SetPortBitsAll drives a named input port with the same bit values
// (LSB first) on every lane.
func (w *WideState) SetPortBitsAll(name string, bits []uint8) error {
	p, ok := w.n.InputPort(name)
	if !ok {
		return fmt.Errorf("logic: no input port %q on %s", name, w.n.Name)
	}
	if len(bits) != len(p.Nets) {
		return fmt.Errorf("logic: port %q width %d, got %d bits", name, len(p.Nets), len(bits))
	}
	for i, b := range bits {
		if b != 0 {
			w.setNetWord(p.Nets[i], w.mask)
		} else {
			w.setNetWord(p.Nets[i], 0)
		}
	}
	return nil
}

// SetPortUintAll drives up to 64 bits of a named input port from an
// integer (LSB first) on every lane.
func (w *WideState) SetPortUintAll(name string, v uint64) error {
	p, ok := w.n.InputPort(name)
	if !ok {
		return fmt.Errorf("logic: no input port %q on %s", name, w.n.Name)
	}
	for i, net := range p.Nets {
		if i < 64 && v>>uint(i)&1 == 1 {
			w.setNetWord(net, w.mask)
		} else {
			w.setNetWord(net, 0)
		}
	}
	return nil
}

// SetPortLanesBits drives a named input port with per-lane bit vectors:
// laneBits[l] is lane l's value slice (LSB first), one per active lane.
// Each port net is written once with the transposed lane word, so the
// scheduling work matches a single scalar port write.
func (w *WideState) SetPortLanesBits(name string, laneBits [][]uint8) error {
	p, ok := w.n.InputPort(name)
	if !ok {
		return fmt.Errorf("logic: no input port %q on %s", name, w.n.Name)
	}
	if len(laneBits) != w.lanes {
		return fmt.Errorf("logic: port %q driven with %d lanes, wide state has %d", name, len(laneBits), w.lanes)
	}
	for l, bits := range laneBits {
		if len(bits) != len(p.Nets) {
			return fmt.Errorf("logic: port %q width %d, lane %d got %d bits", name, len(p.Nets), l, len(bits))
		}
	}
	for i, net := range p.Nets {
		var word uint64
		for l, bits := range laneBits {
			if bits[i] != 0 {
				word |= 1 << uint(l)
			}
		}
		w.setNetWord(net, word)
	}
	return nil
}

// emit reports one cell-output toggle word: diff marks the lanes that
// changed, nv is the new lane word.
func (w *WideState) emit(cell int32, diff, nv uint64) {
	if w.OnWideToggle != nil {
		w.OnWideToggle(cell, diff, nv)
	}
}

// Settle propagates pending changes across all lanes without advancing
// the clock, visiting ranks in ascending order exactly like the scalar
// settle. A rank whose inputs changed in no lane is skipped (sparse) or
// evaluates to its cached word and reports nothing (dense sweep).
func (w *WideState) Settle() {
	if w.maxW < w.minW {
		return
	}
	pend := 0
	for i := w.minW; i <= w.maxW; i++ {
		pend += bits.OnesCount64(w.dirty[i])
	}
	if pend >= len(w.prog.ins)/denseDivisor {
		w.settleSweep()
		return
	}
	p := w.prog
	ins := p.ins
	v := w.values
	ov := w.ov
	d := w.dirty
	lmask := w.mask
	for wd := w.minW; wd <= w.maxW; wd++ {
		// Same register-resident word scan as the scalar settle: snapshot
		// the schedule word, clear it once, fold same-word fanout marks
		// back into the register.
		cur := d[wd]
		if cur == 0 {
			continue
		}
		d[wd] = 0
		for cur != 0 {
			t := bits.TrailingZeros64(cur)
			cur &^= 1 << uint(t)
			r := wd<<6 | t
			it := ins[r]
			op := uint32(it.outOp) >> netBits
			a := v[it.in0] ^ wideI0[op]
			b := v[it.in1] ^ wideI1[op]
			s := v[it.in2]
			mx := wideMX[op]
			xr := wideXR[op]
			nv := ((a & b) &^ (mx | xr)) | ((a ^ b) & xr) | (((a &^ s) | (b & s)) & mx)
			nv = (nv ^ wideIO[op]) & lmask
			diff := nv ^ ov[r]
			if diff == 0 {
				continue
			}
			ov[r] = nv
			v[it.outOp&netMask] = nv
			w.emit(p.cellOf[r], diff, nv)
			start, end := p.fanCum[r], p.fanCum[r+1]
			j := start
			if j < end && int(p.fanW[j]) == wd {
				cur |= p.fanM[j]
				j++
			}
			for ; j < end; j++ {
				d[p.fanW[j]] |= p.fanM[j]
			}
			if end > start {
				if fw := int(p.fanW[end-1]); fw > w.maxW {
					w.maxW = fw
				}
			}
		}
	}
	w.minW, w.maxW = len(d), -1
}

// settleSweep is the dense wide settle: one linear pass over the whole
// instruction stream in rank order. No fanout marking is needed (every
// downstream rank is visited anyway) and the schedule bitset is cleared
// wholesale.
func (w *WideState) settleSweep() {
	p := w.prog
	ins := p.ins
	v := w.values
	ov := w.ov
	lmask := w.mask
	for r := range ins {
		it := ins[r]
		op := uint32(it.outOp) >> netBits
		a := v[it.in0] ^ wideI0[op]
		b := v[it.in1] ^ wideI1[op]
		s := v[it.in2]
		mx := wideMX[op]
		xr := wideXR[op]
		nv := ((a & b) &^ (mx | xr)) | ((a ^ b) & xr) | (((a &^ s) | (b & s)) & mx)
		nv = (nv ^ wideIO[op]) & lmask
		diff := nv ^ ov[r]
		if diff == 0 {
			continue
		}
		ov[r] = nv
		v[it.outOp&netMask] = nv
		w.emit(p.cellOf[r], diff, nv)
	}
	for i := range w.dirty {
		w.dirty[i] = 0
	}
	w.minW, w.maxW = len(w.dirty), -1
}

// Tick advances one clock cycle on every lane: the same two-phase
// flip-flop update as the scalar engine (sample all D/enable words,
// commit in sequential-cell order, report per-lane edges, schedule
// fanout), then a settle.
func (w *WideState) Tick() {
	w.cycle++
	p := w.prog
	v := w.values
	for k := range p.seqCell {
		d := v[p.seqD[k]]
		if en := p.seqEn[k]; en >= 0 {
			e := v[en]
			q := v[p.seqQ[k]]
			w.newQ[k] = (d & e) | (q &^ e)
		} else {
			w.newQ[k] = d
		}
	}
	for k, ci := range p.seqCell {
		q := p.seqQ[k]
		nv := w.newQ[k]
		diff := nv ^ v[q]
		if diff == 0 {
			continue
		}
		v[q] = nv
		w.emit(ci, diff, nv)
		if r := p.netRank[q]; r >= 0 {
			w.ov[r] = nv
		}
		w.markFanout(q)
	}
	w.Settle()
}
