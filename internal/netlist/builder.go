package netlist

import "fmt"

// Builder incrementally constructs a Netlist. All gate-creation methods
// tag new cells with the current region (see SetRegion / PushRegion).
type Builder struct {
	name    string
	cells   []Cell
	inputs  []Port
	outputs []Port
	driver  []int
	region  string
	stack   []string
	lo, hi  Net // lazily created tie cells
}

// NewBuilder returns an empty builder for a design with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		driver: []int{-2}, // net 0 is reserved/invalid
	}
}

// Clone returns an independent copy of the builder's design under a new
// name: further edits to either one, including ReplaceFanout and
// PatchCellInput rewiring the copied cells in place, never reach the
// other. Every cell's inputs share one backing array, each cell's
// sub-slice capped at its own pins. The copy has room for a quarter
// more cells and nets, so logic added to it (a Trojan is a few percent
// of a design) appends without regrowing them.
func (b *Builder) Clone(name string) *Builder {
	pins := 0
	for _, c := range b.cells {
		pins += len(c.Inputs)
	}
	flat := make([]Net, 0, pins)
	cells := make([]Cell, len(b.cells), len(b.cells)*5/4)
	for i, c := range b.cells {
		lo := len(flat)
		flat = append(flat, c.Inputs...)
		c.Inputs = flat[lo:len(flat):len(flat)]
		cells[i] = c
	}
	return &Builder{
		name:    name,
		cells:   cells,
		inputs:  clonePorts(b.inputs),
		outputs: clonePorts(b.outputs),
		driver:  append(make([]int, 0, len(b.driver)*5/4), b.driver...),
		region:  b.region,
		stack:   append([]string(nil), b.stack...),
		lo:      b.lo,
		hi:      b.hi,
	}
}

func clonePorts(ports []Port) []Port {
	out := make([]Port, len(ports))
	for i, p := range ports {
		out[i] = Port{Name: p.Name, Nets: append([]Net(nil), p.Nets...)}
	}
	return out
}

// SetRegion sets the region tag applied to subsequently created cells.
func (b *Builder) SetRegion(region string) { b.region = region }

// PushRegion appends a path segment to the current region tag.
func (b *Builder) PushRegion(segment string) {
	b.stack = append(b.stack, b.region)
	if b.region == "" {
		b.region = segment
	} else {
		b.region = b.region + "/" + segment
	}
}

// PopRegion restores the region tag saved by the matching PushRegion.
func (b *Builder) PopRegion() {
	if len(b.stack) == 0 {
		panic("netlist: PopRegion without matching PushRegion")
	}
	b.region = b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
}

// NewNet allocates a fresh undriven net.
func (b *Builder) NewNet() Net {
	b.driver = append(b.driver, -2)
	return Net(len(b.driver) - 1)
}

// Input declares a named input bus of the given width and returns its
// nets, LSB first.
func (b *Builder) Input(name string, width int) []Net {
	nets := make([]Net, width)
	for i := range nets {
		nets[i] = b.NewNet()
		b.driver[nets[i]] = -1
	}
	b.inputs = append(b.inputs, Port{Name: name, Nets: nets})
	return nets
}

// Output declares a named output bus connected to the given nets.
func (b *Builder) Output(name string, nets []Net) {
	cp := make([]Net, len(nets))
	copy(cp, nets)
	b.outputs = append(b.outputs, Port{Name: name, Nets: cp})
}

// addCell appends a cell and returns its output net.
func (b *Builder) addCell(t CellType, inputs ...Net) Net {
	if len(inputs) != t.NumInputs() {
		panic(fmt.Sprintf("netlist: %v expects %d inputs, got %d", t, t.NumInputs(), len(inputs)))
	}
	out := b.NewNet()
	b.driver[out] = len(b.cells)
	ins := make([]Net, len(inputs))
	copy(ins, inputs)
	b.cells = append(b.cells, Cell{Type: t, Region: b.region, Inputs: ins, Output: out})
	return out
}

// Low returns the constant-0 net, creating a single shared TIELO cell on
// first use.
func (b *Builder) Low() Net {
	if b.lo == InvalidNet {
		b.lo = b.addCell(TieLo)
	}
	return b.lo
}

// High returns the constant-1 net, creating a single shared TIEHI cell on
// first use.
func (b *Builder) High() Net {
	if b.hi == InvalidNet {
		b.hi = b.addCell(TieHi)
	}
	return b.hi
}

// Const returns the Low or High net for bit v.
func (b *Builder) Const(v bool) Net {
	if v {
		return b.High()
	}
	return b.Low()
}

// Single-output gate constructors.

// Buf inserts a buffer.
func (b *Builder) Buf(a Net) Net { return b.addCell(Buf, a) }

// Not inserts an inverter.
func (b *Builder) Not(a Net) Net { return b.addCell(Inv, a) }

// And inserts a 2-input AND.
func (b *Builder) And(a, c Net) Net { return b.addCell(And2, a, c) }

// Nand inserts a 2-input NAND.
func (b *Builder) Nand(a, c Net) Net { return b.addCell(Nand2, a, c) }

// Or inserts a 2-input OR.
func (b *Builder) Or(a, c Net) Net { return b.addCell(Or2, a, c) }

// Nor inserts a 2-input NOR.
func (b *Builder) Nor(a, c Net) Net { return b.addCell(Nor2, a, c) }

// Xor inserts a 2-input XOR.
func (b *Builder) Xor(a, c Net) Net { return b.addCell(Xor2, a, c) }

// Xnor inserts a 2-input XNOR.
func (b *Builder) Xnor(a, c Net) Net { return b.addCell(Xnor2, a, c) }

// Mux inserts a 2:1 multiplexer returning s ? hi : lo.
func (b *Builder) Mux(lo, hi, s Net) Net { return b.addCell(Mux2, lo, hi, s) }

// Reg inserts a D flip-flop clocked by the implicit global clock.
func (b *Builder) Reg(d Net) Net { return b.addCell(DFF, d) }

// RegE inserts an enabled D flip-flop: q <- en ? d : q.
func (b *Builder) RegE(d, en Net) Net { return b.addCell(DFFE, d, en) }

// Bus helpers. All operate element-wise, LSB first.

// XorBus XORs two equal-width buses.
func (b *Builder) XorBus(x, y []Net) []Net {
	mustSameWidth("XorBus", x, y)
	out := make([]Net, len(x))
	for i := range x {
		out[i] = b.Xor(x[i], y[i])
	}
	return out
}

// MuxBus selects between two equal-width buses: s ? hi : lo.
func (b *Builder) MuxBus(lo, hi []Net, s Net) []Net {
	mustSameWidth("MuxBus", lo, hi)
	out := make([]Net, len(lo))
	for i := range lo {
		out[i] = b.Mux(lo[i], hi[i], s)
	}
	return out
}

// ConstBus returns a bus of constant nets encoding value (LSB first).
func (b *Builder) ConstBus(value uint64, width int) []Net {
	out := make([]Net, width)
	for i := range out {
		out[i] = b.Const(value>>uint(i)&1 == 1)
	}
	return out
}

// ReduceXor XORs all bits of a bus down to one net using a balanced tree.
func (b *Builder) ReduceXor(x []Net) Net { return b.reduce(x, b.Xor) }

// ReduceAnd ANDs all bits of a bus down to one net using a balanced tree.
func (b *Builder) ReduceAnd(x []Net) Net { return b.reduce(x, b.And) }

// ReduceOr ORs all bits of a bus down to one net using a balanced tree.
func (b *Builder) ReduceOr(x []Net) Net { return b.reduce(x, b.Or) }

func (b *Builder) reduce(x []Net, op func(Net, Net) Net) Net {
	switch len(x) {
	case 0:
		return b.Low()
	case 1:
		return x[0]
	}
	mid := len(x) / 2
	return op(b.reduce(x[:mid], op), b.reduce(x[mid:], op))
}

// EqualsConst returns a net that is 1 when bus x equals the constant
// value.
func (b *Builder) EqualsConst(x []Net, value uint64) Net {
	terms := make([]Net, len(x))
	for i, bit := range x {
		if value>>uint(i)&1 == 1 {
			terms[i] = bit
		} else {
			terms[i] = b.Not(bit)
		}
	}
	return b.ReduceAnd(terms)
}

// Incrementer builds x+1 over the bus width (wrap-around), returning the
// sum bus. It uses a ripple chain of XOR/AND gates.
func (b *Builder) Incrementer(x []Net) []Net {
	out := make([]Net, len(x))
	carry := b.High()
	for i, bit := range x {
		out[i] = b.Xor(bit, carry)
		if i < len(x)-1 {
			carry = b.And(bit, carry)
		}
	}
	return out
}

// Counter builds a free-running width-bit counter register and returns its
// outputs. When en is valid the counter only advances while en is high.
func (b *Builder) Counter(width int, en Net) []Net {
	// Create the registers first so the increment logic can feed back.
	q := make([]Net, width)
	cells := make([]int, width)
	for i := range q {
		var out Net
		if en == InvalidNet {
			out = b.addCell(DFF, b.Low()) // placeholder D, patched below
		} else {
			out = b.addCell(DFFE, b.Low(), en)
		}
		q[i] = out
		cells[i] = len(b.cells) - 1
	}
	next := b.Incrementer(q)
	for i, ci := range cells {
		b.cells[ci].Inputs[0] = next[i]
	}
	return q
}

// NumCells returns the number of cells created so far.
func (b *Builder) NumCells() int { return len(b.cells) }

// GateEquivalentsSince sums the gate-equivalent area of every cell
// created at or after cell index from (see NumCells). Inserted payloads
// use it to pad their footprint to a fixed size so different inserts
// yield the same die geometry.
func (b *Builder) GateEquivalentsSince(from int) float64 {
	ge := 0.0
	for _, c := range b.cells[from:] {
		ge += c.Type.GateEquivalents()
	}
	return ge
}

// ReplaceFanout rewires the readers of net old onto net new: every
// input pin of a cell with index below cellLimit, and every output-port
// connection. Cells at or above cellLimit keep reading old, so a payload
// inserted after the original design can splice itself into old's fanout
// without rewiring its own trigger logic or the payload gate itself
// (which must keep reading the original signal). The driver of old is
// untouched. It returns the number of pins rewired.
func (b *Builder) ReplaceFanout(old, new Net, cellLimit int) int {
	if old == new {
		return 0
	}
	n := 0
	for ci := range b.cells[:cellLimit] {
		ins := b.cells[ci].Inputs
		for pi := range ins {
			if ins[pi] == old {
				ins[pi] = new
				n++
			}
		}
	}
	for oi := range b.outputs {
		nets := b.outputs[oi].Nets
		for ni := range nets {
			if nets[ni] == old {
				nets[ni] = new
				n++
			}
		}
	}
	return n
}

// SetNetLoad attaches extra load capacitance (farads) to a net's driving
// cell, modeling a heavily loaded wire such as a pad or the AM Trojan's
// antenna. It panics when the net has no driving cell.
func (b *Builder) SetNetLoad(n Net, farads float64) {
	d := b.driver[n]
	if d < 0 {
		panic(fmt.Sprintf("netlist: SetNetLoad on undriven net %d", n))
	}
	b.cells[d].Load = farads
}

// PatchCellInput rewires one input pin of an existing cell. Generators
// with registered feedback use it: create the register with a placeholder
// D input, build the logic that consumes its output, then patch the D pin.
func (b *Builder) PatchCellInput(cell, pin int, n Net) {
	b.cells[cell].Inputs[pin] = n
}

// Build finalizes the netlist and validates it, panicking on structural
// errors (which are generator bugs, not runtime conditions).
func (b *Builder) Build() *Netlist {
	n := &Netlist{
		Name:    b.name,
		Cells:   b.cells,
		Inputs:  b.inputs,
		Outputs: b.outputs,
		numNets: len(b.driver),
		driver:  b.driver,
		inPorts: make(map[string]int, len(b.inputs)),
	}
	for i, p := range b.inputs {
		n.inPorts[p.Name] = i
	}
	if err := n.Check(); err != nil {
		panic(err)
	}
	return n
}

func mustSameWidth(op string, x, y []Net) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("netlist: %s width mismatch %d vs %d", op, len(x), len(y)))
	}
}
