package netlist

import (
	"strings"
	"testing"
)

func TestCellTypeArity(t *testing.T) {
	cases := map[CellType]int{
		TieLo: 0, TieHi: 0, Buf: 1, Inv: 1, DFF: 1,
		And2: 2, Nand2: 2, Or2: 2, Nor2: 2, Xor2: 2, Xnor2: 2, DFFE: 2,
		Mux2: 3,
	}
	for typ, want := range cases {
		if got := typ.NumInputs(); got != want {
			t.Errorf("%v.NumInputs() = %d, want %d", typ, got, want)
		}
	}
}

func TestCellTypeString(t *testing.T) {
	if Xor2.String() != "XOR2" || DFF.String() != "DFF" {
		t.Fatal("String names wrong")
	}
	if !strings.Contains(CellType(99).String(), "99") {
		t.Fatal("out-of-range String should include the number")
	}
}

func TestCellTypeProperties(t *testing.T) {
	if !DFF.IsSequential() || !DFFE.IsSequential() || Xor2.IsSequential() {
		t.Fatal("IsSequential wrong")
	}
	for typ := CellType(0); typ < numCellTypes; typ++ {
		if typ.GateEquivalents() <= 0 {
			t.Errorf("%v has non-positive area", typ)
		}
		if typ.SwitchingCharge() <= 0 {
			t.Errorf("%v has non-positive switching charge", typ)
		}
	}
	if DFF.GateEquivalents() <= Inv.GateEquivalents() {
		t.Fatal("a flip-flop must be larger than an inverter")
	}
}

func TestBuilderBasicGates(t *testing.T) {
	b := NewBuilder("t")
	in := b.Input("in", 2)
	y := b.Xor(in[0], in[1])
	b.Output("y", []Net{y})
	n := b.Build()
	if got := n.Stats("").Cells; got != 1 {
		t.Fatalf("cells = %d, want 1", got)
	}
	if n.Name != "t" {
		t.Fatalf("name = %q", n.Name)
	}
	p, ok := n.InputPort("in")
	if !ok || len(p.Nets) != 2 {
		t.Fatal("input port lost")
	}
	if _, ok := n.OutputPort("y"); !ok {
		t.Fatal("output port lost")
	}
	if _, ok := n.InputPort("nope"); ok {
		t.Fatal("phantom port")
	}
}

func TestBuilderRegions(t *testing.T) {
	b := NewBuilder("t")
	in := b.Input("in", 1)
	b.SetRegion("aes")
	b.PushRegion("sbox")
	if b.region != "aes/sbox" {
		t.Fatalf("region = %q", b.region)
	}
	b.Not(in[0])
	b.PopRegion()
	b.Buf(in[0])
	b.Output("o", []Net{in[0]})
	n := b.Build()
	if got := n.Stats("aes/sbox").Cells; got != 1 {
		t.Fatalf("sbox cells = %d", got)
	}
	if got := n.Stats("aes").Cells; got != 2 {
		t.Fatalf("aes cells = %d", got)
	}
	regions := n.Regions()
	if len(regions) != 1 || regions[0] != "aes" {
		t.Fatalf("regions = %v", regions)
	}
}

func TestPushRegionFromEmpty(t *testing.T) {
	b := NewBuilder("t")
	b.PushRegion("top")
	if b.region != "top" {
		t.Fatalf("region = %q", b.region)
	}
	b.PopRegion()
	if b.region != "" {
		t.Fatalf("region after pop = %q", b.region)
	}
}

func TestPopRegionUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("t").PopRegion()
}

func TestTieCellsShared(t *testing.T) {
	b := NewBuilder("t")
	lo1 := b.Low()
	lo2 := b.Low()
	hi := b.High()
	if lo1 != lo2 {
		t.Fatal("Low must return a shared net")
	}
	if lo1 == hi {
		t.Fatal("Low and High must differ")
	}
	if b.Const(true) != hi || b.Const(false) != lo1 {
		t.Fatal("Const mapping wrong")
	}
	b.Output("o", []Net{lo1, hi})
	n := b.Build()
	if got := n.Stats("").Cells; got != 2 {
		t.Fatalf("tie cells = %d, want 2", got)
	}
}

func TestConstBus(t *testing.T) {
	b := NewBuilder("t")
	bus := b.ConstBus(0b1011, 6)
	b.Output("o", bus)
	n := b.Build()
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	if len(bus) != 6 {
		t.Fatalf("width = %d", len(bus))
	}
}

func TestBuilderArityPanics(t *testing.T) {
	b := NewBuilder("t")
	in := b.Input("in", 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.addCell(Xor2, in[0]) // wrong arity
}

func TestBusHelperWidthPanics(t *testing.T) {
	b := NewBuilder("t")
	x := b.Input("x", 2)
	y := b.Input("y", 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.XorBus(x, y)
}

func TestStatsByType(t *testing.T) {
	b := NewBuilder("t")
	in := b.Input("in", 2)
	b.Xor(in[0], in[1])
	b.Xor(in[0], in[1])
	b.Reg(in[0])
	b.Output("o", in)
	n := b.Build()
	s := n.Stats("")
	if s.ByType[Xor2] != 2 || s.ByType[DFF] != 1 {
		t.Fatalf("ByType = %v", s.ByType)
	}
	if s.Sequential != 1 {
		t.Fatalf("Sequential = %d", s.Sequential)
	}
	wantGE := 2*Xor2.GateEquivalents() + DFF.GateEquivalents()
	if s.GateEquivalent != wantGE {
		t.Fatalf("GE = %g, want %g", s.GateEquivalent, wantGE)
	}
}

func TestCheckCatchesUndrivenNet(t *testing.T) {
	b := NewBuilder("t")
	in := b.Input("in", 1)
	dangling := b.NewNet()
	y := b.And(in[0], dangling)
	b.Output("y", []Net{y})
	n := &Netlist{
		Name:    b.name,
		Cells:   b.cells,
		Inputs:  b.inputs,
		Outputs: b.outputs,
		numNets: len(b.driver),
		driver:  b.driver,
		inPorts: map[string]int{"in": 0},
	}
	if err := n.Check(); err == nil {
		t.Fatal("Check must reject undriven input nets")
	}
}

func TestBuildPanicsOnInvalid(t *testing.T) {
	b := NewBuilder("t")
	in := b.Input("in", 1)
	b.And(in[0], b.NewNet())
	defer func() {
		if recover() == nil {
			t.Fatal("Build must panic on structural errors")
		}
	}()
	b.Build()
}

func TestDriverBookkeeping(t *testing.T) {
	b := NewBuilder("t")
	in := b.Input("in", 1)
	y := b.Not(in[0])
	b.Output("y", []Net{y})
	n := b.Build()
	if n.Driver(in[0]) != -1 {
		t.Fatal("primary input driver must be -1")
	}
	if n.Driver(y) != 0 {
		t.Fatalf("driver of y = %d, want cell 0", n.Driver(y))
	}
	if n.NumNets() != 3 { // invalid + input + output
		t.Fatalf("NumNets = %d", n.NumNets())
	}
}

func TestStuckAt(t *testing.T) {
	b := NewBuilder("sa")
	in := b.Input("in", 2)
	x := b.Xor(in[0], in[1])
	y := b.And(x, in[0])
	b.Output("y", []Net{y})
	n := b.Build()

	sa, err := n.StuckAt(x, true)
	if err != nil {
		t.Fatal(err)
	}
	// The driver of x is now a TIEHI with no inputs.
	d := sa.Driver(x)
	if sa.Cells[d].Type != TieHi || len(sa.Cells[d].Inputs) != 0 {
		t.Fatalf("stuck cell = %+v", sa.Cells[d])
	}
	// The original netlist is untouched.
	if n.Cells[n.Driver(x)].Type != Xor2 {
		t.Fatal("original mutated")
	}
	// Region survives for layout/power bookkeeping.
	if sa.Cells[d].Region != n.Cells[n.Driver(x)].Region {
		t.Fatal("region lost")
	}
	// Stuck-at-0 variant.
	sa0, err := n.StuckAt(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if sa0.Cells[sa0.Driver(x)].Type != TieLo {
		t.Fatal("stuck-at-0 wrong type")
	}
	// Errors: invalid net and primary input.
	if _, err := n.StuckAt(InvalidNet, true); err == nil {
		t.Fatal("invalid net must error")
	}
	if _, err := n.StuckAt(Net(9999), true); err == nil {
		t.Fatal("out-of-range net must error")
	}
	if _, err := n.StuckAt(in[0], true); err == nil {
		t.Fatal("primary input must error")
	}
}

func TestBusHelpers(t *testing.T) {
	b := NewBuilder("bus")
	x := b.Input("x", 4)
	y := b.Input("y", 4)
	en := b.Input("en", 1)
	s := b.Input("s", 1)
	if got := len(b.XorBus(x, y)); got != 4 {
		t.Fatalf("XorBus width %d", got)
	}
	if got := len(b.MuxBus(x, y, s[0])); got != 4 {
		t.Fatalf("MuxBus width %d", got)
	}
	outs := []Net{
		b.ReduceXor(x), b.ReduceAnd(x), b.ReduceOr(x),
		b.ReduceXor(nil), // empty reduction is constant 0
		b.EqualsConst(x, 5),
	}
	outs = append(outs, b.Incrementer(x)...)
	outs = append(outs, b.Counter(3, en[0])...)
	b.Output("o", outs)
	n := b.Build()
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	if b.NumCells() != len(n.Cells) {
		t.Fatal("NumCells mismatch")
	}
}

func TestSetNetLoad(t *testing.T) {
	b := NewBuilder("load")
	in := b.Input("in", 1)
	y := b.Buf(in[0])
	b.SetNetLoad(y, 2e-12)
	b.Output("y", []Net{y})
	n := b.Build()
	if n.Cells[n.Driver(y)].Load != 2e-12 {
		t.Fatal("load not recorded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetNetLoad on an input net must panic")
		}
	}()
	b.SetNetLoad(in[0], 1e-12)
}
