package logic

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"emtrust/internal/netlist"
)

// randomNetlist builds random "gate soup": a handful of flip-flops with
// patched feedback and a few dozen combinational gates drawing inputs
// from the port, register outputs and earlier gate outputs (acyclic by
// construction). It exercises every cell type including DFFE enables and
// Mux2 selects.
func randomNetlist(rng *rand.Rand) *netlist.Netlist {
	b := netlist.NewBuilder("soup")
	width := 2 + rng.Intn(7)
	in := b.Input("in", width)
	pool := append([]netlist.Net{}, in...)

	type regInfo struct {
		cell int
		dffe bool
	}
	var regs []regInfo
	for i, n := 0, rng.Intn(6); i < n; i++ {
		dffe := rng.Intn(2) == 0
		var q netlist.Net
		if dffe {
			q = b.RegE(b.Low(), b.Low())
		} else {
			q = b.Reg(b.Low())
		}
		regs = append(regs, regInfo{cell: b.NumCells() - 1, dffe: dffe})
		pool = append(pool, q)
	}
	pick := func() netlist.Net { return pool[rng.Intn(len(pool))] }
	for i, n := 0, 5+rng.Intn(60); i < n; i++ {
		var out netlist.Net
		switch rng.Intn(11) {
		case 0:
			out = b.Buf(pick())
		case 1:
			out = b.Not(pick())
		case 2:
			out = b.And(pick(), pick())
		case 3:
			out = b.Nand(pick(), pick())
		case 4:
			out = b.Or(pick(), pick())
		case 5:
			out = b.Nor(pick(), pick())
		case 6:
			out = b.Xor(pick(), pick())
		case 7:
			out = b.Xnor(pick(), pick())
		case 8:
			out = b.Mux(pick(), pick(), pick())
		case 9:
			out = b.Const(rng.Intn(2) == 1)
		default:
			out = b.Xor(pick(), pick())
		}
		pool = append(pool, out)
	}
	// Close the sequential feedback loops through the finished soup.
	for _, r := range regs {
		b.PatchCellInput(r.cell, 0, pick())
		if r.dffe {
			b.PatchCellInput(r.cell, 1, pick())
		}
	}
	outs := make([]netlist.Net, 1+rng.Intn(4))
	for i := range outs {
		outs[i] = pick()
	}
	b.Output("out", outs)
	return b.Build()
}

// differentialPair wires up a reference and a compiled simulator over
// the same netlist, both running batched toggle accounting so the
// differential checks compare their drained streams.
type differentialPair struct {
	n        *netlist.Netlist
	ref, cmp *Simulator
}

func newDifferentialPair(t testing.TB, n *netlist.Netlist) *differentialPair {
	t.Helper()
	ref, err := New(n, WithReferenceEngine())
	if err != nil {
		t.Fatalf("reference New: %v", err)
	}
	cmp, err := New(n)
	if err != nil {
		t.Fatalf("compiled New: %v", err)
	}
	if ref.Compiled() || !cmp.Compiled() {
		t.Fatal("engine selection broken")
	}
	ref.BatchToggles(true)
	cmp.BatchToggles(true)
	return &differentialPair{n: n, ref: ref, cmp: cmp}
}

// check compares net values and the step's drained toggle streams
// (order and directions included).
func (d *differentialPair) check(t testing.TB, step string) {
	t.Helper()
	for net := netlist.Net(1); int(net) < d.n.NumNets(); net++ {
		if rv, cv := d.ref.Net(net), d.cmp.Net(net); rv != cv {
			t.Fatalf("%s: net %d: reference=%d compiled=%d", step, net, rv, cv)
		}
	}
	events, want := d.cmp.TakeToggles(), d.ref.TakeToggles()
	if len(events) != len(want) {
		t.Fatalf("%s: %d compiled toggles vs %d reference toggles", step, len(events), len(want))
	}
	for i, e := range events {
		if e.Cell() != want[i].Cell() || e.Rise() != want[i].Rise() {
			t.Fatalf("%s: toggle %d: compiled (cell %d, rise %v) vs reference (cell %d, rise %v)",
				step, i, e.Cell(), e.Rise(), want[i].Cell(), want[i].Rise())
		}
	}
	if d.ref.Cycle() != d.cmp.Cycle() {
		t.Fatalf("%s: cycle %d vs %d", step, d.ref.Cycle(), d.cmp.Cycle())
	}
}

// driveDifferential replays a stimulus byte stream against both engines,
// comparing after every operation. Byte encoding: low 3 bits select the
// operation, the rest parameterize it.
func driveDifferential(t testing.TB, n *netlist.Netlist, stimulus []byte) {
	t.Helper()
	d := newDifferentialPair(t, n)
	d.check(t, "initial settle")
	var refSnap, cmpSnap *State
	for i, by := range stimulus {
		switch by & 7 {
		case 0, 1, 2, 3: // drive the port, settle inside the cycle, tick
			v := uint64(by >> 3)
			if err := d.ref.SetPortUint("in", v); err != nil {
				t.Fatal(err)
			}
			if err := d.cmp.SetPortUint("in", v); err != nil {
				t.Fatal(err)
			}
			d.ref.Settle()
			d.cmp.Settle()
			d.check(t, "settle")
			d.ref.Tick()
			d.cmp.Tick()
			d.check(t, "tick after settle")
		case 4: // drive and tick without an explicit settle
			v := uint64(by >> 3)
			d.ref.SetPortUint("in", v)
			d.cmp.SetPortUint("in", v)
			d.ref.Tick()
			d.cmp.Tick()
			d.check(t, "tick")
		case 5: // snapshot, run ahead, restore, replay
			if refSnap == nil {
				refSnap, cmpSnap = d.ref.State(), d.cmp.State()
			} else {
				d.ref.SetState(refSnap)
				d.cmp.SetState(cmpSnap)
				refSnap, cmpSnap = nil, nil
				d.ref.TakeToggles()
				d.cmp.TakeToggles()
				d.ref.Tick()
				d.cmp.Tick()
				d.check(t, "tick after restore")
			}
		case 6: // fork both and continue on the forks
			ref, cmp := d.ref.Fork(), d.cmp.Fork()
			ref.BatchToggles(true)
			cmp.BatchToggles(true)
			d.ref, d.cmp = ref, cmp
			d.ref.Tick()
			d.cmp.Tick()
			d.check(t, "tick after fork")
		case 7: // reset (toggle reporting suppressed on both)
			d.ref.Reset()
			d.cmp.Reset()
			d.check(t, "reset")
		}
		_ = i
	}
}

// TestDifferentialRandomNetlists pins compiled-vs-reference equality on
// a few hundred random designs with random stimulus: identical net
// values after every operation and identical toggle streams (cells,
// directions and order) per step.
func TestDifferentialRandomNetlists(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetlist(rng)
		stim := make([]byte, 40)
		rng.Read(stim)
		driveDifferential(t, n, stim)
	}
}

// TestDifferentialStuckAt covers the stuck-at netlist mutation: the tie
// cell replacing a driver must behave identically under both engines.
func TestDifferentialStuckAt(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := randomNetlist(rng)
		// Stick the output of the last cell (always present).
		target := n.Cells[len(n.Cells)-1].Output
		sa, err := n.StuckAt(target, seed%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		stim := make([]byte, 24)
		rng.Read(stim)
		driveDifferential(t, sa, stim)
	}
}

// TestDifferentialCrossEngineState restores a reference-engine snapshot
// into a compiled simulator (and vice versa): the compiled engine must
// schedule a conservative full pass and converge to identical state.
func TestDifferentialCrossEngineState(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := randomNetlist(rng)
	d := newDifferentialPair(t, n)
	for i := 0; i < 10; i++ {
		v := uint64(rng.Intn(256))
		d.ref.SetPortUint("in", v)
		d.cmp.SetPortUint("in", v)
		d.ref.Tick()
		d.cmp.Tick()
	}
	d.ref.TakeToggles()
	d.cmp.TakeToggles()
	// A reference snapshot carries no scheduling info; the compiled
	// engine must still replay identically from it.
	snap := d.ref.State()
	d.cmp.SetState(snap)
	d.check(t, "cross-engine restore")
	d.ref.SetState(snap)
	for i := 0; i < 5; i++ {
		v := uint64(rng.Intn(256))
		d.ref.SetPortUint("in", v)
		d.cmp.SetPortUint("in", v)
		d.ref.Tick()
		d.cmp.Tick()
		d.check(t, "tick after cross-engine restore")
	}
}

// FuzzCompiledVsReference fuzzes the differential harness: the first 8
// bytes seed the random netlist shape, the rest replay as stimulus
// against both engines. Any divergence in net values, toggle counts,
// toggle order or toggle direction fails.
func FuzzCompiledVsReference(f *testing.F) {
	f.Add([]byte("emtrust0\x00\x08\x11\x1a\x23\x2c\x35\x3e\x47\x50"))
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x04\x05\x06\x07\x0c\x15\x1e\x27"))
	f.Add([]byte("\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\x05\x05\x06\x06\x07\x07\x04\x04"))
	f.Add([]byte("differential-seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		seed := int64(binary.LittleEndian.Uint64(data[:8]))
		rng := rand.New(rand.NewSource(seed))
		n := randomNetlist(rng)
		stim := data[8:]
		if len(stim) > 64 {
			stim = stim[:64]
		}
		driveDifferential(t, n, stim)
	})
}

// TestCompiledActivityFactor is a living measurement, not an assertion
// of hardware truth: on random soup with random stimulus the compiled
// engine must evaluate strictly fewer cell visits than cycles times
// cells (the reference cost), or the event-driven machinery is not
// actually skipping anything.
func TestCompiledSkipsQuietCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := randomNetlist(rng)
	sim, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	// A tick with unchanged inputs after settling must evaluate only
	// cells reachable from toggled flip-flops. With no state change at
	// all, zero toggles must be reported.
	sim.Run(3)
	sim.BatchToggles(true)
	sim.Settle() // nothing changed since the last settle
	if got := len(sim.TakeToggles()); got != 0 {
		t.Fatalf("settle with no input change produced %d toggles", got)
	}
}

// appendFanout builds the rank-ordered fanout arrays the way compile
// did before it counted them: one append per (rank, reader word) pair.
// It is the reference checkCountedFanout compares compile against.
func appendFanout(p *program) (fanW []int32, fanM []uint64, fanCum []int32) {
	fanCum = make([]int32, len(p.ins)+1)
	for r := range p.ins {
		o := p.ins[r].outOp & netMask
		lastW := int32(-1)
		for _, fr := range p.fanRank[p.fanStart[o]:p.fanStart[o+1]] {
			if w := fr >> 6; w != lastW {
				lastW = w
				fanW = append(fanW, w)
				fanM = append(fanM, 0)
			}
			fanM[len(fanM)-1] |= 1 << (uint(fr) & 63)
		}
		fanCum[r+1] = int32(len(fanW))
	}
	return fanW, fanM, fanCum
}

// checkCountedFanout reports where p's rank-ordered fanout arrays
// differ from appendFanout's, or where compile allocated one of them
// larger than it filled.
func checkCountedFanout(p *program) error {
	fanW, fanM, fanCum := appendFanout(p)
	if !slices.Equal(p.fanW, fanW) || !slices.Equal(p.fanM, fanM) || !slices.Equal(p.fanCum, fanCum) {
		return fmt.Errorf("fanout arrays differ from the append-built reference: %d/%d/%d entries, reference %d/%d/%d",
			len(p.fanW), len(p.fanM), len(p.fanCum), len(fanW), len(fanM), len(fanCum))
	}
	if len(p.fanW) != cap(p.fanW) || len(p.fanM) != cap(p.fanM) || len(p.fanCum) != cap(p.fanCum) {
		return fmt.Errorf("fanout arrays are not sized to fit: len/cap fanW %d/%d, fanM %d/%d, fanCum %d/%d",
			len(p.fanW), cap(p.fanW), len(p.fanM), cap(p.fanM), len(p.fanCum), cap(p.fanCum))
	}
	return nil
}

// TestCompiledFanoutMatchesAppend pins compile's counted fanout
// construction on the differential suite's 300 random netlists: the
// same (word, mask) pairs and segment bounds as one append per pair,
// in arrays allocated once at their final size.
func TestCompiledFanoutMatchesAppend(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		s, err := New(randomNetlist(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCountedFanout(s.prog); err != nil {
			t.Fatalf("netlist seed %d: %v", seed, err)
		}
	}
}
