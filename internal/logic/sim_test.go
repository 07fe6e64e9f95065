package logic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emtrust/internal/netlist"
)

// Rise reports whether the toggle was a 0->1 transition.
func (e ToggleEvent) Rise() bool { return e&1 != 0 }

// buildComb creates a tiny netlist with every combinational cell type fed
// by a 3-bit input bus.
func buildComb(t *testing.T) (*netlist.Netlist, *Simulator) {
	t.Helper()
	b := netlist.NewBuilder("comb")
	in := b.Input("in", 3)
	a, c, s := in[0], in[1], in[2]
	b.Output("buf", []netlist.Net{b.Buf(a)})
	b.Output("inv", []netlist.Net{b.Not(a)})
	b.Output("and", []netlist.Net{b.And(a, c)})
	b.Output("nand", []netlist.Net{b.Nand(a, c)})
	b.Output("or", []netlist.Net{b.Or(a, c)})
	b.Output("nor", []netlist.Net{b.Nor(a, c)})
	b.Output("xor", []netlist.Net{b.Xor(a, c)})
	b.Output("xnor", []netlist.Net{b.Xnor(a, c)})
	b.Output("mux", []netlist.Net{b.Mux(a, c, s)})
	b.Output("lo", []netlist.Net{b.Low()})
	b.Output("hi", []netlist.Net{b.High()})
	n := b.Build()
	sim, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, sim
}

func TestAllGateTruthTables(t *testing.T) {
	_, sim := buildComb(t)
	for v := uint64(0); v < 8; v++ {
		if err := sim.SetPortUint("in", v); err != nil {
			t.Fatal(err)
		}
		sim.Settle()
		a := v & 1
		c := v >> 1 & 1
		s := v >> 2 & 1
		expect := map[string]uint64{
			"buf": a, "inv": a ^ 1,
			"and": a & c, "nand": (a & c) ^ 1,
			"or": a | c, "nor": (a | c) ^ 1,
			"xor": a ^ c, "xnor": (a ^ c) ^ 1,
			"lo": 0, "hi": 1,
		}
		if s == 1 {
			expect["mux"] = c
		} else {
			expect["mux"] = a
		}
		for port, want := range expect {
			got, err := sim.PortUint(port)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("in=%03b: %s = %d, want %d", v, port, got, want)
			}
		}
	}
}

func TestDFFShiftRegister(t *testing.T) {
	b := netlist.NewBuilder("shift")
	in := b.Input("d", 1)
	q1 := b.Reg(in[0])
	q2 := b.Reg(q1)
	q3 := b.Reg(q2)
	b.Output("q", []netlist.Net{q3})
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	pattern := []uint64{1, 0, 1, 1, 0, 0, 1, 0}
	var got []uint64
	for _, bit := range pattern {
		sim.SetPortUint("d", bit)
		sim.Tick()
		v, _ := sim.PortUint("q")
		got = append(got, v)
	}
	// After k ticks, q3 holds the input from 3 ticks ago (zeros before).
	for i := range pattern {
		want := uint64(0)
		if i >= 2 {
			want = pattern[i-2]
		}
		if got[i] != want {
			t.Fatalf("tick %d: q = %d, want %d (got %v)", i, got[i], want, got)
		}
	}
}

func TestDFFEHoldsWithoutEnable(t *testing.T) {
	b := netlist.NewBuilder("dffe")
	d := b.Input("d", 1)
	en := b.Input("en", 1)
	q := b.RegE(d[0], en[0])
	b.Output("q", []netlist.Net{q})
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	sim.SetPortUint("d", 1)
	sim.SetPortUint("en", 0)
	sim.Tick()
	if v, _ := sim.PortUint("q"); v != 0 {
		t.Fatal("DFFE captured without enable")
	}
	sim.SetPortUint("en", 1)
	sim.Tick()
	if v, _ := sim.PortUint("q"); v != 1 {
		t.Fatal("DFFE did not capture with enable")
	}
	sim.SetPortUint("d", 0)
	sim.SetPortUint("en", 0)
	sim.Tick()
	if v, _ := sim.PortUint("q"); v != 1 {
		t.Fatal("DFFE did not hold with enable low")
	}
}

func TestCounter(t *testing.T) {
	b := netlist.NewBuilder("ctr")
	q := b.Counter(4, netlist.InvalidNet)
	b.Output("q", q)
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want < 20; want++ {
		sim.Tick()
		got, _ := sim.PortUint("q")
		if got != want%16 {
			t.Fatalf("after %d ticks counter = %d, want %d", want, got, want%16)
		}
	}
}

func TestGatedCounter(t *testing.T) {
	b := netlist.NewBuilder("gctr")
	en := b.Input("en", 1)
	q := b.Counter(3, en[0])
	b.Output("q", q)
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	sim.SetPortUint("en", 0)
	sim.Run(5)
	if got, _ := sim.PortUint("q"); got != 0 {
		t.Fatalf("gated counter advanced while disabled: %d", got)
	}
	sim.SetPortUint("en", 1)
	sim.Run(3)
	if got, _ := sim.PortUint("q"); got != 3 {
		t.Fatalf("gated counter = %d, want 3", got)
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	b := netlist.NewBuilder("loop")
	in := b.Input("in", 1)
	// Create a feedback loop by patching a gate input to its own cone.
	x := b.And(in[0], in[0])
	b.Or(x, in[0])
	// Manually rewire the AND's second input to the OR output.
	nl := b.Build()
	nl.Cells[0].Inputs[1] = nl.Cells[1].Output
	if _, err := New(nl); err == nil {
		t.Fatal("combinational loop must be rejected")
	}
}

func TestToggleCallback(t *testing.T) {
	b := netlist.NewBuilder("tgl")
	in := b.Input("in", 1)
	inv := b.Not(in[0])
	q := b.Reg(inv)
	b.Output("q", []netlist.Net{q})
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	sim.BatchToggles(true)

	// After New, inv output settled to 1 (input 0). Driving in=1 makes
	// the inverter fall; the DFF then captures the old value 1 on the
	// next tick and rises.
	sim.SetPortUint("in", 1)
	sim.Tick()
	events := sim.TakeToggles()
	if len(events) != 2 {
		t.Fatalf("events = %v, want 2 (DFF rise, INV fall)", events)
	}
	if !events[0].Rise() { // DFF captures the previously settled 1
		t.Fatalf("first event should be the DFF rising, got cell %d fall", events[0].Cell())
	}
	if events[1].Rise() { // inverter falls after the new input propagates
		t.Fatalf("second event should be the inverter falling, got cell %d rise", events[1].Cell())
	}
}

func TestResetSuppressesTogglesAndZeroes(t *testing.T) {
	b := netlist.NewBuilder("rst")
	q := b.Counter(4, netlist.InvalidNet)
	b.Output("q", q)
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	sim.BatchToggles(true)
	sim.Run(7) // leaves pending events for Reset to discard
	sim.Reset()
	if got := len(sim.TakeToggles()); got != 0 {
		t.Fatalf("Reset left %d toggle events", got)
	}
	if got, _ := sim.PortUint("q"); got != 0 {
		t.Fatalf("counter after reset = %d", got)
	}
	if sim.Cycle() != 0 {
		t.Fatalf("cycle after reset = %d", sim.Cycle())
	}
	sim.Run(2)
	if got, _ := sim.PortUint("q"); got != 2 {
		t.Fatalf("counter after reset+2 = %d", got)
	}
	if len(sim.TakeToggles()) == 0 {
		t.Fatal("Reset did not restore batched accounting")
	}
}

func TestPortErrors(t *testing.T) {
	_, sim := buildComb(t)
	if err := sim.SetPortUint("nope", 1); err == nil {
		t.Fatal("unknown input port must error")
	}
	if err := sim.SetPortBits("in", []uint8{1}); err == nil {
		t.Fatal("width mismatch must error")
	}
	if _, err := sim.PortUint("nope"); err == nil {
		t.Fatal("unknown port must error")
	}
	if _, err := sim.PortBits("in"); err != nil {
		t.Fatal("reading an input port must work")
	}
}

func TestSetPortBitsNormalizesValues(t *testing.T) {
	_, sim := buildComb(t)
	if err := sim.SetPortBits("in", []uint8{7, 0, 255}); err != nil {
		t.Fatal(err)
	}
	got, _ := sim.PortBits("in")
	if got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("bits = %v", got)
	}
}

// Property: a combinational adder netlist matches integer addition.
func TestRippleIncrementerMatchesArithmetic(t *testing.T) {
	b := netlist.NewBuilder("inc")
	x := b.Input("x", 8)
	b.Output("y", b.Incrementer(x))
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	f := func(v uint8) bool {
		sim.SetPortUint("x", uint64(v))
		sim.Settle()
		got, _ := sim.PortUint("y")
		return got == uint64(v+1) // uint8 wraps like the 8-bit bus
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EqualsConst matches ==.
func TestEqualsConst(t *testing.T) {
	b := netlist.NewBuilder("eq")
	x := b.Input("x", 8)
	b.Output("eq", []netlist.Net{b.EqualsConst(x, 0xA5)})
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 256; v++ {
		sim.SetPortUint("x", v)
		sim.Settle()
		got, _ := sim.PortUint("eq")
		want := uint64(0)
		if v == 0xA5 {
			want = 1
		}
		if got != want {
			t.Fatalf("EqualsConst(%#x) = %d", v, got)
		}
	}
}

// Property: reduction gates match software reductions on random inputs.
func TestReductions(t *testing.T) {
	b := netlist.NewBuilder("red")
	x := b.Input("x", 9)
	b.Output("rxor", []netlist.Net{b.ReduceXor(x)})
	b.Output("rand", []netlist.Net{b.ReduceAnd(x)})
	b.Output("ror", []netlist.Net{b.ReduceOr(x)})
	sim, err := New(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		v := uint64(rng.Intn(512))
		sim.SetPortUint("x", v)
		sim.Settle()
		var xr, ar, or uint64
		ar = 1
		for k := 0; k < 9; k++ {
			bit := v >> uint(k) & 1
			xr ^= bit
			ar &= bit
			or |= bit
		}
		gx, _ := sim.PortUint("rxor")
		ga, _ := sim.PortUint("rand")
		go_, _ := sim.PortUint("ror")
		if gx != xr || ga != ar || go_ != or {
			t.Fatalf("v=%09b: got (%d,%d,%d) want (%d,%d,%d)", v, gx, ga, go_, xr, ar, or)
		}
	}
}

func TestNetlistAccessor(t *testing.T) {
	n, sim := buildComb(t)
	if sim.Netlist() != n {
		t.Fatal("Netlist accessor broken")
	}
}

func TestStuckAtChangesFunction(t *testing.T) {
	b := netlist.NewBuilder("saf")
	in := b.Input("in", 2)
	x := b.Xor(in[0], in[1])
	b.Output("y", []netlist.Net{x})
	n := b.Build()
	sa, err := n.StuckAt(x, true)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(sa)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 4; v++ {
		sim.SetPortUint("in", v)
		sim.Settle()
		got, _ := sim.PortUint("y")
		if got != 1 {
			t.Fatalf("stuck-at-1 output = %d for in=%d", got, v)
		}
	}
}

// engines runs a subtest under both the compiled and reference engine so
// semantic tests pin both implementations.
func engines(t *testing.T, f func(t *testing.T, opts ...Option)) {
	t.Run("compiled", func(t *testing.T) { f(t) })
	t.Run("reference", func(t *testing.T) { f(t, WithReferenceEngine()) })
}

// drainToggles drains sim's batched toggles, stamping each with the
// cycle in which its step ended.
func drainToggles(sim *Simulator) []cycleToggle {
	var out []cycleToggle
	for _, e := range sim.TakeToggles() {
		out = append(out, cycleToggle{e.Cell(), e.Rise(), sim.Cycle()})
	}
	return out
}

type cycleToggle struct {
	cell  int
	rise  bool
	cycle int
}

// TestDFFEEnableToggleReporting exercises the DFFE enable path in both
// engines: a disabled flip-flop must neither capture nor report a
// toggle, an enabled one must do both, and the toggle must be reported
// at the clock edge (ahead of the settle it causes, in the cycle the
// Tick advanced to).
func TestDFFEEnableToggleReporting(t *testing.T) {
	engines(t, func(t *testing.T, opts ...Option) {
		b := netlist.NewBuilder("dffe_tgl")
		d := b.Input("d", 1)
		en := b.Input("en", 1)
		q := b.RegE(d[0], en[0])
		inv := b.Not(q) // combinational fanout of the register
		b.Output("q", []netlist.Net{q})
		b.Output("nq", []netlist.Net{inv})
		sim, err := New(b.Build(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		sim.BatchToggles(true)
		regCell := sim.Netlist().Driver(q)
		invCell := sim.Netlist().Driver(inv)

		// Enable low: D changes must not reach Q and no toggles fire at
		// the edge (the inverter settled to 1 at New, with accounting
		// off).
		sim.SetPortUint("d", 1)
		sim.Tick()
		if v, _ := sim.PortUint("q"); v != 0 {
			t.Fatal("DFFE captured with enable low")
		}
		for _, e := range drainToggles(sim) {
			if e.cell == regCell {
				t.Fatalf("disabled DFFE reported a toggle: %+v", e)
			}
		}

		// Enable high: Q rises at the edge of cycle 2 and the inverter
		// falls during the same cycle's settling.
		sim.SetPortUint("en", 1)
		sim.Tick()
		if v, _ := sim.PortUint("q"); v != 1 {
			t.Fatal("DFFE did not capture with enable high")
		}
		events := drainToggles(sim)
		want := []cycleToggle{{regCell, true, 2}, {invCell, false, 2}}
		if len(events) != len(want) {
			t.Fatalf("events = %+v, want %+v", events, want)
		}
		for i := range want {
			if events[i] != want[i] {
				t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
			}
		}

		// Enable low again with D low: Q holds, no register toggle.
		sim.SetPortUint("d", 0)
		sim.SetPortUint("en", 0)
		sim.Tick()
		if v, _ := sim.PortUint("q"); v != 1 {
			t.Fatal("DFFE did not hold with enable low")
		}
		if events := drainToggles(sim); len(events) != 0 {
			t.Fatalf("holding DFFE produced events %+v", events)
		}
	})
}

// TestMux2SelectToggles exercises the Mux2 select path: flipping the
// select between unequal data legs toggles the output, flipping it
// between equal legs must not, and toggles during an explicit Settle are
// reported under the still-current cycle (settling, not a clock edge).
func TestMux2SelectToggles(t *testing.T) {
	engines(t, func(t *testing.T, opts ...Option) {
		b := netlist.NewBuilder("mux_sel")
		a := b.Input("a", 1)
		c := b.Input("b", 1)
		s := b.Input("s", 1)
		m := b.Mux(a[0], c[0], s[0])
		b.Output("y", []netlist.Net{m})
		sim, err := New(b.Build(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		muxCell := sim.Netlist().Driver(m)
		sim.BatchToggles(true)

		// a=1, b=0, s=0 -> y=1 (a leg): the mux rises during settling of
		// cycle 0 (no Tick has happened).
		sim.SetPortUint("a", 1)
		sim.Settle()
		if v, _ := sim.PortUint("y"); v != 1 {
			t.Fatal("mux did not pass the a leg")
		}
		if events := drainToggles(sim); len(events) != 1 || events[0] != (cycleToggle{muxCell, true, 0}) {
			t.Fatalf("events = %+v, want mux rise in cycle 0", events)
		}

		// Select flips to the b leg (0): the output falls.
		sim.SetPortUint("s", 1)
		sim.Settle()
		if v, _ := sim.PortUint("y"); v != 0 {
			t.Fatal("mux did not switch to the b leg")
		}
		if events := drainToggles(sim); len(events) != 1 || events[0].rise {
			t.Fatalf("events = %+v, want a single fall", events)
		}

		// Equal legs: select flips must not toggle the output.
		sim.SetPortUint("b", 1)
		sim.Settle() // y: 0 -> 1 with the b leg now high
		sim.TakeToggles()
		sim.SetPortUint("s", 0)
		sim.Settle()
		if v, _ := sim.PortUint("y"); v != 1 {
			t.Fatal("mux output wrong after select flip between equal legs")
		}
		if events := drainToggles(sim); len(events) != 0 {
			t.Fatalf("select flip between equal legs toggled: %+v", events)
		}
	})
}

// TestForkDoesNotCopyOnToggle pins Simulator.Fork's intentional non-copy
// of toggle accounting: a fork starts with batching off and none of the
// parent's pending events, so it records nothing until a caller turns
// on its own accounting, and its activity never lands in the parent's
// buffer (where it would be misattributed to the parent's recorder).
func TestForkDoesNotCopyOnToggle(t *testing.T) {
	engines(t, func(t *testing.T, opts ...Option) {
		b := netlist.NewBuilder("fork_tgl")
		q := b.Counter(4, netlist.InvalidNet)
		b.Output("q", q)
		sim, err := New(b.Build(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		sim.BatchToggles(true)

		f := sim.Fork()
		if f.batch {
			t.Fatal("Fork copied batched accounting")
		}
		f.Run(4)
		if got := len(sim.events); got != 0 {
			t.Fatalf("fork activity left %d events in the parent's buffer", got)
		}
		if got := len(f.TakeToggles()); got != 0 {
			t.Fatalf("fork accumulated %d batched events without batching on", got)
		}
		// The fork still simulates correctly and can record its own.
		f.BatchToggles(true)
		f.Run(1)
		if len(f.TakeToggles()) == 0 {
			t.Fatal("fork with its own accounting recorded nothing")
		}
		if got, _ := f.PortUint("q"); got != 5 {
			t.Fatalf("fork counter = %d, want 5", got)
		}
		// And the parent's accounting still works.
		sim.Run(1)
		if len(sim.TakeToggles()) == 0 {
			t.Fatal("parent accounting lost after Fork")
		}
	})
}
