package logic

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"emtrust/internal/netlist"
)

// Cycle returns the number of Tick calls since the last LoadStates.
func (w *WideState) Cycle() int { return w.cycle }

// LaneState extracts one lane as a scalar snapshot, restorable into a
// Simulator of the same netlist via SetState (it carries no scheduling
// information, so the restore schedules a full settle).
func (w *WideState) LaneState(lane int) *State {
	v := make([]uint8, len(w.values))
	for i, word := range w.values {
		v[i] = uint8(word >> uint(lane) & 1)
	}
	return &State{values: v, cycle: w.cycle}
}

// SetPortLaneUint drives up to 64 bits of a named input port on a
// single lane, leaving the other lanes' values unchanged.
func (w *WideState) SetPortLaneUint(name string, lane int, v uint64) error {
	p, ok := w.n.InputPort(name)
	if !ok {
		return fmt.Errorf("logic: no input port %q on %s", name, w.n.Name)
	}
	bit := uint64(1) << uint(lane)
	for i, net := range p.Nets {
		word := w.values[net] &^ bit
		if i < 64 && v>>uint(i)&1 == 1 {
			word |= bit
		}
		w.setNetWord(net, word)
	}
	return nil
}

// wideHarness runs one WideState against per-lane scalar pairs — a
// reference-engine and a compiled simulator per lane — so every check
// is a three-way differential: wide vs compiled vs reference, per lane,
// including toggle streams in order. The wide engine's toggles reach
// wideLog through OnWideToggle, split into per-lane scalar events.
type wideHarness struct {
	n       *netlist.Netlist
	lanes   int
	ref     []*Simulator
	cmp     []*Simulator
	wideLog [][]ToggleEvent
	w       *WideState
}

func newWideHarness(t testing.TB, n *netlist.Netlist, lanes int) *wideHarness {
	t.Helper()
	base, err := New(n)
	if err != nil {
		t.Fatalf("compiled New: %v", err)
	}
	w, err := base.Wide()
	if err != nil {
		t.Fatalf("Wide: %v", err)
	}
	sts := make([]*State, lanes)
	for l := range sts {
		sts[l] = base.State()
	}
	if err := w.LoadStates(sts); err != nil {
		t.Fatalf("LoadStates: %v", err)
	}
	h := &wideHarness{n: n, lanes: lanes, w: w, wideLog: make([][]ToggleEvent, lanes)}
	w.OnWideToggle = func(cell int32, diff, nv uint64) {
		for diff != 0 {
			l := bits.TrailingZeros64(diff)
			diff &= diff - 1
			h.wideLog[l] = append(h.wideLog[l], ToggleEvent(cell)<<1|ToggleEvent(nv>>uint(l)&1))
		}
	}
	for l := 0; l < lanes; l++ {
		ref, err := New(n, WithReferenceEngine())
		if err != nil {
			t.Fatalf("reference New: %v", err)
		}
		ref.BatchToggles(true)
		cmp, err := New(n)
		if err != nil {
			t.Fatalf("compiled New: %v", err)
		}
		cmp.BatchToggles(true)
		h.ref = append(h.ref, ref)
		h.cmp = append(h.cmp, cmp)
	}
	return h
}

// check compares, per lane, every net value and the step's toggle
// stream (cells, directions, order) across all three engines, then
// clears the accumulated streams.
func (h *wideHarness) check(t testing.TB, step string) {
	t.Helper()
	for l := 0; l < h.lanes; l++ {
		for net := netlist.Net(1); int(net) < h.n.NumNets(); net++ {
			rv, cv, wv := h.ref[l].Net(net), h.cmp[l].Net(net), h.w.NetLane(net, l)
			if rv != cv || cv != wv {
				t.Fatalf("%s: lane %d net %d: reference=%d compiled=%d wide=%d", step, l, net, rv, cv, wv)
			}
		}
		if hi := h.w.NetWord(netlist.Net(1)) &^ h.w.mask; hi != 0 {
			t.Fatalf("%s: lane word has bits above the %d-lane mask: %#x", step, h.lanes, hi)
		}
		evR := h.ref[l].TakeToggles()
		evC := h.cmp[l].TakeToggles()
		evW := h.wideLog[l]
		if len(evC) != len(evW) || len(evC) != len(evR) {
			t.Fatalf("%s: lane %d: %d wide toggles vs %d compiled vs %d reference",
				step, l, len(evW), len(evC), len(evR))
		}
		for i := range evC {
			if evW[i].Cell() != evC[i].Cell() || evW[i].Rise() != evC[i].Rise() ||
				evC[i].Cell() != evR[i].Cell() || evC[i].Rise() != evR[i].Rise() {
				t.Fatalf("%s: lane %d toggle %d: wide (cell %d, rise %v) compiled (cell %d, rise %v) reference (cell %d, rise %v)",
					step, l, i, evW[i].Cell(), evW[i].Rise(), evC[i].Cell(), evC[i].Rise(), evR[i].Cell(), evR[i].Rise())
			}
		}
		if h.ref[l].Cycle() != h.w.Cycle() || h.cmp[l].Cycle() != h.w.Cycle() {
			t.Fatalf("%s: lane %d cycle: reference %d compiled %d wide %d",
				step, l, h.ref[l].Cycle(), h.cmp[l].Cycle(), h.w.Cycle())
		}
		h.wideLog[l] = h.wideLog[l][:0]
	}
}

func (h *wideHarness) settleAll() {
	for l := 0; l < h.lanes; l++ {
		h.ref[l].Settle()
		h.cmp[l].Settle()
	}
	h.w.Settle()
}

func (h *wideHarness) tickAll() {
	for l := 0; l < h.lanes; l++ {
		h.ref[l].Tick()
		h.cmp[l].Tick()
	}
	h.w.Tick()
}

// driveWideDifferential replays a stimulus byte stream against the
// harness, comparing after every operation. The low 3 bits of each byte
// select the operation; the rest parameterize it. Lane stimulus is
// deliberately divergent (a per-lane offset folded into the value) so
// lanes exercise different paths through the same word-parallel settle.
func driveWideDifferential(t testing.TB, n *netlist.Netlist, lanes int, stimulus []byte) {
	t.Helper()
	h := newWideHarness(t, n, lanes)
	h.check(t, "initial load")
	for _, by := range stimulus {
		switch by & 7 {
		case 0, 1, 2, 3: // lane-divergent port values, settle, tick
			for l := 0; l < lanes; l++ {
				v := uint64(by>>3) + 7*uint64(l)
				if err := h.ref[l].SetPortUint("in", v); err != nil {
					t.Fatal(err)
				}
				if err := h.cmp[l].SetPortUint("in", v); err != nil {
					t.Fatal(err)
				}
				if err := h.w.SetPortLaneUint("in", l, v); err != nil {
					t.Fatal(err)
				}
			}
			h.settleAll()
			h.check(t, "settle")
			h.tickAll()
			h.check(t, "tick after settle")
		case 4: // broadcast port value, tick without explicit settle
			v := uint64(by >> 3)
			for l := 0; l < lanes; l++ {
				h.ref[l].SetPortUint("in", v)
				h.cmp[l].SetPortUint("in", v)
			}
			if err := h.w.SetPortUintAll("in", v); err != nil {
				t.Fatal(err)
			}
			h.tickAll()
			h.check(t, "tick broadcast")
		case 5: // lane extraction round-trip
			l := int(by>>3) % lanes
			st := h.w.LaneState(l)
			if !st.ValuesEqual(h.cmp[l].State()) {
				t.Fatalf("LaneState(%d) diverges from the lane's scalar state", l)
			}
			if st.cycle != h.cmp[l].Cycle() {
				t.Fatalf("LaneState(%d) cycle %d vs scalar %d", l, st.cycle, h.cmp[l].Cycle())
			}
		case 6: // per-lane bit vectors through the transposing port write
			p, ok := n.InputPort("in")
			if !ok {
				t.Fatal("no input port")
			}
			laneBits := make([][]uint8, lanes)
			for l := range laneBits {
				bits := make([]uint8, len(p.Nets))
				for i := range bits {
					bits[i] = uint8((int(by>>3) + 3*l + i) & 1)
				}
				laneBits[l] = bits
				h.ref[l].SetPortBits("in", bits)
				h.cmp[l].SetPortBits("in", bits)
			}
			if err := h.w.SetPortLanesBits("in", laneBits); err != nil {
				t.Fatal(err)
			}
			h.settleAll()
			h.check(t, "settle lane bits")
			h.tickAll()
			h.check(t, "tick lane bits")
		case 7: // broadcast bit vector
			p, ok := n.InputPort("in")
			if !ok {
				t.Fatal("no input port")
			}
			bits := make([]uint8, len(p.Nets))
			for i := range bits {
				bits[i] = uint8(int(by>>3) >> (i & 7) & 1)
			}
			for l := 0; l < lanes; l++ {
				h.ref[l].SetPortBits("in", bits)
				h.cmp[l].SetPortBits("in", bits)
			}
			if err := h.w.SetPortBitsAll("in", bits); err != nil {
				t.Fatal(err)
			}
			h.tickAll()
			h.check(t, "tick broadcast bits")
		}
	}
}

// TestWideDifferentialRandomNetlists pins wide-vs-compiled-vs-reference
// equality on 300 random designs with random stimulus and random lane
// counts from 1 to 64 — including partial last words — per lane:
// identical net values after every operation and identical toggle
// streams (cells, directions, order) per step.
func TestWideDifferentialRandomNetlists(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		n := randomNetlist(rng)
		lanes := 1 + rng.Intn(MaxLanes)
		stim := make([]byte, 24)
		rng.Read(stim)
		driveWideDifferential(t, n, lanes, stim)
	}
}

// TestWideZeroActivityLanes pins the per-lane toggle filter: when a
// single lane's stimulus changes, every other lane's toggle stream must
// stay empty even though the wide settle visits the dirtied ranks for
// all lanes at once.
func TestWideZeroActivityLanes(t *testing.T) {
	b := netlist.NewBuilder("quiet")
	in := b.Input("in", 2)
	x := b.Xor(in[0], in[1])
	q := b.Reg(x)
	b.Output("out", []netlist.Net{b.Not(q)})
	n := b.Build()

	h := newWideHarness(t, n, MaxLanes)
	h.check(t, "load")
	const active = 37
	for l := 0; l < MaxLanes; l++ {
		v := uint64(0)
		if l == active {
			v = 1
		}
		h.ref[l].SetPortUint("in", v)
		h.cmp[l].SetPortUint("in", v)
		h.w.SetPortLaneUint("in", l, v)
	}
	h.settleAll()
	for l := 0; l < MaxLanes; l++ {
		if l != active && len(h.wideLog[l]) != 0 {
			t.Fatalf("inactive lane %d reported %d toggles", l, len(h.wideLog[l]))
		}
	}
	if len(h.wideLog[active]) == 0 {
		t.Fatal("active lane reported no toggles")
	}
	h.check(t, "single-lane settle")
	h.tickAll()
	h.check(t, "single-lane tick")
}

// TestWideAllLanesToggle drives all 64 lanes through the same
// transition: every lane must report the full toggle stream and the
// toggled net words must saturate the lane mask.
func TestWideAllLanesToggle(t *testing.T) {
	b := netlist.NewBuilder("saturate")
	in := b.Input("in", 1)
	inv := b.Not(in[0])
	q := b.Reg(inv)
	b.Output("out", []netlist.Net{q})
	n := b.Build()

	h := newWideHarness(t, n, MaxLanes)
	h.check(t, "load")
	// inv settles to 1 on every lane at load; in=0 keeps it there, so
	// the first tick loads q=1 on all 64 lanes simultaneously.
	if got := h.w.NetWord(inv); got != h.w.mask {
		t.Fatalf("inverter word %#x, want full mask %#x", got, h.w.mask)
	}
	h.tickAll()
	for l := 0; l < MaxLanes; l++ {
		if len(h.wideLog[l]) == 0 {
			t.Fatalf("lane %d missed the all-lane flip-flop toggle", l)
		}
	}
	if got := h.w.NetWord(q); got != h.w.mask {
		t.Fatalf("flip-flop word %#x, want full mask %#x", got, h.w.mask)
	}
	h.check(t, "all-lane tick")
	// Now flip the input on every lane at once: inv falls everywhere.
	for l := 0; l < MaxLanes; l++ {
		h.ref[l].SetPortUint("in", 1)
		h.cmp[l].SetPortUint("in", 1)
	}
	h.w.SetPortUintAll("in", 1)
	h.settleAll()
	if got := h.w.NetWord(inv); got != 0 {
		t.Fatalf("inverter word %#x after all-lane fall, want 0", got)
	}
	h.check(t, "all-lane settle")
}

// TestWidePartialWordMasking pins the lane mask on a partial last word:
// with 5 lanes no computation — including output-inverting gates whose
// intermediate words carry high garbage bits — may leak values above
// the mask, and constants must read back masked.
func TestWidePartialWordMasking(t *testing.T) {
	b := netlist.NewBuilder("partial")
	in := b.Input("in", 2)
	hi := b.Const(true)
	inv := b.Not(in[0])
	nand := b.Nand(in[1], hi)
	q := b.Reg(b.Xor(inv, nand))
	b.Output("out", []netlist.Net{q})
	n := b.Build()

	const lanes = 5
	h := newWideHarness(t, n, lanes)
	h.check(t, "load")
	if got, want := h.w.NetWord(hi), uint64(1<<lanes-1); got != want {
		t.Fatalf("constant-1 word %#x, want %#x", got, want)
	}
	for _, net := range []netlist.Net{hi, inv, nand, q} {
		if over := h.w.NetWord(net) &^ h.w.mask; over != 0 {
			t.Fatalf("net %d carries bits above the 5-lane mask: %#x", net, over)
		}
	}
	rng := rand.New(rand.NewSource(9))
	stim := make([]byte, 16)
	rng.Read(stim)
	driveWideDifferential(t, n, lanes, stim)
}

// TestWideDFFEDivergentEnables pins the enable path of DFFE under
// lane-divergent enables: enabled lanes load D while disabled lanes
// hold Q, within one word-parallel commit.
func TestWideDFFEDivergentEnables(t *testing.T) {
	b := netlist.NewBuilder("dffe")
	in := b.Input("in", 2)
	q := b.RegE(in[0], in[1])
	b.Output("out", []netlist.Net{q})
	n := b.Build()

	const lanes = 7
	h := newWideHarness(t, n, lanes)
	h.check(t, "load")
	// Odd lanes enabled with D=1, even lanes disabled with D=1: after
	// the tick only odd lanes hold 1.
	for l := 0; l < lanes; l++ {
		v := uint64(1) // D=1, en=0
		if l&1 == 1 {
			v = 3 // D=1, en=1
		}
		h.ref[l].SetPortUint("in", v)
		h.cmp[l].SetPortUint("in", v)
		h.w.SetPortLaneUint("in", l, v)
	}
	h.settleAll()
	h.check(t, "settle divergent enables")
	h.tickAll()
	for l := 0; l < lanes; l++ {
		want := uint8(l & 1)
		if got := h.w.NetLane(q, l); got != want {
			t.Fatalf("lane %d DFFE q=%d, want %d", l, got, want)
		}
	}
	h.check(t, "tick divergent enables")
	// Disable everywhere with D=0: every lane must hold.
	for l := 0; l < lanes; l++ {
		h.ref[l].SetPortUint("in", 0)
		h.cmp[l].SetPortUint("in", 0)
	}
	h.w.SetPortUintAll("in", 0)
	h.tickAll()
	for l := 0; l < lanes; l++ {
		want := uint8(l & 1)
		if got := h.w.NetLane(q, l); got != want {
			t.Fatalf("lane %d DFFE lost its held value: q=%d, want %d", l, got, want)
		}
	}
	h.check(t, "hold under disabled enables")
}

// FuzzWideVsCompiled fuzzes the wide differential harness: the first 8
// bytes seed the random netlist shape, the ninth picks the lane count
// (1–64), the rest replay as per-lane stimulus against the wide,
// compiled and reference engines. Any divergence in net values, toggle
// counts, toggle order or toggle direction fails.
func FuzzWideVsCompiled(f *testing.F) {
	f.Add([]byte("emtrust0\x3f\x00\x08\x11\x1a\x23\x2c\x35\x3e\x47\x50"))
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x01\x04\x05\x06\x07\x0c\x15\x1e\x27"))
	f.Add([]byte("\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\x20\x05\x05\x06\x06\x07\x07\x04"))
	f.Add([]byte("wide-differential"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		seed := int64(binary.LittleEndian.Uint64(data[:8]))
		lanes := int(data[8])%MaxLanes + 1
		rng := rand.New(rand.NewSource(seed))
		n := randomNetlist(rng)
		stim := data[9:]
		if len(stim) > 48 {
			stim = stim[:48]
		}
		driveWideDifferential(t, n, lanes, stim)
	})
}

// TestWideLoadStatesSharedAndDistinct pins LoadStates' lane packing
// when some lanes pass the first lane's *State and others load their
// own snapshots: every lane must read back exactly the snapshot it was
// given.
func TestWideLoadStatesSharedAndDistinct(t *testing.T) {
	b := netlist.NewBuilder("ctr")
	b.Output("q", b.Counter(4, netlist.InvalidNet))
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]*State, 4)
	for i := range snaps {
		snaps[i] = sim.State()
		sim.Tick()
	}
	base := snaps[0]
	sts := []*State{base, snaps[2], base, base, snaps[1], snaps[3], base, snaps[2], sim.State()}
	w, err := sim.Wide()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LoadStates(sts); err != nil {
		t.Fatal(err)
	}
	for l, st := range sts {
		if !w.LaneState(l).ValuesEqual(st) {
			t.Fatalf("lane %d does not hold the snapshot it loaded", l)
		}
	}
	if snaps[0].ValuesEqual(snaps[1]) || snaps[1].ValuesEqual(snaps[2]) {
		t.Fatal("counter snapshots do not differ; the test loads nothing distinct")
	}
}
