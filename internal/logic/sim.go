// Package logic implements a levelized two-value synchronous simulator for
// gate-level netlists. Two engines share one semantics: the reference
// evaluator sweeps the full combinational cone once per clock cycle in
// topological order (glitch-free zero-delay semantics), and the default
// compiled engine (see compiled.go) evaluates the same cone
// event-driven — only cells whose inputs changed — with bit-identical
// net values and toggle streams. While batched accounting is on
// (BatchToggles), every output toggle is reported through TakeToggles;
// the power model turns the reports into switching current.
package logic

import (
	"bytes"
	"fmt"

	"emtrust/internal/netlist"
)

// Simulator simulates one netlist instance. It is not safe for concurrent
// use; create one Simulator per goroutine.
type Simulator struct {
	n      *netlist.Netlist
	values []uint8 // current value per net (0 or 1)
	order  []int   // combinational cell indices in topological order
	seq    []int   // sequential cell indices
	newQ   []uint8 // scratch for two-phase flip-flop update
	cycle  int

	// Compiled event-driven engine (nil when the reference evaluator
	// was selected). dirty is a per-rank scheduling bitset; minW/maxW
	// bound the occupied words (minW > maxW means empty). ov caches
	// each combinational cell's output value indexed by rank (invariant
	// ov[r] == values[out(r)]) so the settle scan compares against a
	// near-sequential load instead of a random net access.
	prog       *program
	dirty      []uint64
	ov         []uint8
	minW, maxW int

	// Batched toggle accounting (see BatchToggles/TakeToggles). Every
	// engine appends each toggle to events; when batch is off, settle
	// empties the buffer again (keeping its capacity).
	batch  bool
	events []ToggleEvent
}

// Option configures a Simulator at construction time.
type Option func(*simOptions)

type simOptions struct {
	reference bool
}

// WithReferenceEngine selects the straight-line full-cone evaluator
// instead of the default compiled event-driven engine. The two engines
// produce bit-identical net values and toggle streams (pinned by the
// differential tests); the reference engine exists as the semantic
// ground truth and for performance comparison.
func WithReferenceEngine() Option {
	return func(o *simOptions) { o.reference = true }
}

// ToggleEvent packs one output toggle reported by batched accounting:
// the toggling cell's index in bits 1.. and the new output value in
// bit 0 (1 for a rising edge).
type ToggleEvent int32

// Cell returns the index of the toggling cell.
func (e ToggleEvent) Cell() int { return int(e >> 1) }

// New builds a simulator for n. It fails if the combinational logic
// contains a cycle (through non-sequential cells). By default the
// compiled event-driven engine is used; see WithReferenceEngine.
func New(n *netlist.Netlist, opts ...Option) (*Simulator, error) {
	var o simOptions
	for _, opt := range opts {
		opt(&o)
	}
	s := &Simulator{
		n:      n,
		values: make([]uint8, n.NumNets()),
	}
	for i, c := range n.Cells {
		if c.Type.IsSequential() {
			s.seq = append(s.seq, i)
		}
	}
	s.newQ = make([]uint8, len(s.seq))
	order, err := levelize(n)
	if err != nil {
		return nil, err
	}
	s.order = order
	if !o.reference {
		// compile returns nil for designs whose net indices do not fit
		// the packed instruction word; those fall back to the reference
		// evaluator transparently.
		s.prog = compile(n, order, s.seq)
	}
	if s.prog != nil {
		s.dirty = make([]uint64, s.prog.nwords)
		s.ov = make([]uint8, len(order))
		s.minW, s.maxW = len(s.dirty), -1
		s.markAll()
	}
	s.settle() // establish consistent all-zero-input state
	return s, nil
}

// Compiled reports whether the simulator runs the compiled event-driven
// engine (as opposed to the reference evaluator).
func (s *Simulator) Compiled() bool { return s.prog != nil }

// levelize returns the combinational cells of n in topological order using
// Kahn's algorithm. Sequential cell outputs and primary inputs are
// sources.
func levelize(n *netlist.Netlist) ([]int, error) {
	// In-degrees over combinational cells and edges only, and a per-net
	// CSR of combinational readers: readers of net m are
	// fanout[start[m]:start[m+1]], in ascending cell order. The sort
	// walks only the lists of nets a combinational cell drives.
	indeg := make([]int32, len(n.Cells))
	start := make([]int32, n.NumNets()+1)
	comb := 0
	for i, c := range n.Cells {
		if c.Type.IsSequential() {
			continue
		}
		comb++
		for _, in := range c.Inputs {
			start[in+1]++
			if d := n.Driver(in); d >= 0 && !n.Cells[d].Type.IsSequential() {
				indeg[i]++
			}
		}
	}
	for m := 1; m < len(start); m++ {
		start[m] += start[m-1]
	}
	fanout := make([]int32, start[len(start)-1])
	fill := append([]int32(nil), start[:len(start)-1]...)
	for i, c := range n.Cells {
		if c.Type.IsSequential() {
			continue
		}
		for _, in := range c.Inputs {
			fanout[fill[in]] = int32(i)
			fill[in]++
		}
	}
	// Kahn's algorithm with a FIFO queue: order is the queue itself, in
	// push order, and head marks the next cell to pop.
	order := make([]int, 0, comb)
	for i, c := range n.Cells {
		if !c.Type.IsSequential() && indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		out := n.Cells[order[head]].Output
		for _, j := range fanout[start[out]:start[out+1]] {
			indeg[j]--
			if indeg[j] == 0 {
				order = append(order, int(j))
			}
		}
	}
	if len(order) != comb {
		return nil, fmt.Errorf("logic: netlist %s has a combinational cycle (%d of %d cells levelized)",
			n.Name, len(order), comb)
	}
	return order, nil
}

// Netlist returns the design under simulation.
func (s *Simulator) Netlist() *netlist.Netlist { return s.n }

// BatchToggles switches batched toggle accounting on or off. While it
// is on, the engine appends every toggle to an internal flat buffer in
// occurrence order — flip-flop commits at the clock edge, then
// combinational toggles in settle order — and TakeToggles drains it, so
// an order-preserving consumer (power.Recorder.DrainToggles) pays one
// call per cycle instead of one per toggle. Accounting starts off (New,
// Fork); turning it off discards any pending events.
func (s *Simulator) BatchToggles(on bool) {
	s.batch = on
	if !on {
		s.events = s.events[:0]
	}
}

// TakeToggles returns the toggle events accumulated since the last call
// (in occurrence order) and resets the buffer. The returned slice
// aliases the simulator's internal buffer: it is valid only until the
// next Tick, Settle or port write, so consumers must drain it
// immediately.
func (s *Simulator) TakeToggles() []ToggleEvent {
	ev := s.events
	s.events = s.events[:0]
	return ev
}

// State is an opaque copy of a simulator's mutable state (net values,
// cycle counter and, for the compiled engine, pending evaluation
// scheduling). It lets capture engines roll a simulator back to a
// known point without re-settling or losing input-port values the way
// Reset would.
type State struct {
	values     []uint8
	cycle      int
	dirty      []uint64 // nil when taken from the reference engine
	minW, maxW int
}

// State snapshots the simulator's current net values and cycle counter.
func (s *Simulator) State() *State {
	v := make([]uint8, len(s.values))
	copy(v, s.values)
	st := &State{values: v, cycle: s.cycle}
	if s.prog != nil {
		st.dirty = append([]uint64(nil), s.dirty...)
		st.minW, st.maxW = s.minW, s.maxW
	}
	return st
}

// ValuesEqual reports whether two snapshots hold identical net values.
// Cycle counters and scheduling metadata are ignored: two states that
// agree on every net produce identical futures under identical stimulus
// regardless of how their pending-evaluation sets differ, because
// settling from either schedule converges to the same fixed point.
func (st *State) ValuesEqual(other *State) bool {
	return bytes.Equal(st.values, other.values)
}

// ValueHash returns a 64-bit FNV-1a hash of the net values. Replay
// caches bucket snapshots by this hash before the exact ValuesEqual
// check.
func (st *State) ValueHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range st.values {
		h = (h ^ uint64(v)) * prime
	}
	return h
}

// SetCycle overrides the cycle counter. Replay caches use it to keep
// Cycle() consistent when an entire capture is elided from a cache hit.
func (s *Simulator) SetCycle(n int) { s.cycle = n }

// SetState restores a snapshot taken with State. The snapshot must come
// from a simulator of the same netlist; a length mismatch is a
// programming error and panics. Restoring a reference-engine snapshot
// into a compiled simulator schedules a full re-evaluation pass, which
// keeps semantics exact at the cost of one full sweep on the next
// settle.
func (s *Simulator) SetState(st *State) {
	if len(st.values) != len(s.values) {
		panic(fmt.Sprintf("logic: state of %d nets restored into simulator of %d nets", len(st.values), len(s.values)))
	}
	copy(s.values, st.values)
	s.cycle = st.cycle
	if s.prog != nil {
		s.syncOV()
		if st.dirty != nil {
			copy(s.dirty, st.dirty)
			s.minW, s.maxW = st.minW, st.maxW
		} else {
			s.markAll()
		}
	}
}

// Fork returns an independent simulator over the same netlist, starting
// from s's current state. The immutable compiled program and
// levelization (topological order and sequential-cell list) are shared
// with s; values and scratch buffers are copied, so the fork can run on
// another goroutine.
//
// Fork intentionally does NOT copy the batched toggle mode or pending
// events: they belong to whoever drains s (e.g. a power.Recorder bound
// to another chip), which would otherwise misattribute the fork's
// activity. The fork starts with accounting off; callers that want its
// toggles turn on its own BatchToggles and drain it.
func (s *Simulator) Fork() *Simulator {
	f := &Simulator{
		n:      s.n,
		values: make([]uint8, len(s.values)),
		order:  s.order,
		seq:    s.seq,
		newQ:   make([]uint8, len(s.seq)),
		cycle:  s.cycle,
		prog:   s.prog,
	}
	copy(f.values, s.values)
	if s.prog != nil {
		f.dirty = append([]uint64(nil), s.dirty...)
		f.ov = append([]uint8(nil), s.ov...)
		f.minW, f.maxW = s.minW, s.maxW
	}
	return f
}

// Cycle returns the number of completed Tick calls since the last Reset.
func (s *Simulator) Cycle() int { return s.cycle }

// Reset zeroes all state and re-settles the combinational logic with
// accounting off: the reset's toggles and any pending batched events
// are discarded.
func (s *Simulator) Reset() {
	for i := range s.values {
		s.values[i] = 0
	}
	s.cycle = 0
	saved := s.batch
	s.batch = false
	if s.prog != nil {
		s.syncOV()
		s.markAll()
	}
	s.settle()
	s.batch = saved
}

// Net returns the current value (0 or 1) of a net.
func (s *Simulator) Net(n netlist.Net) uint8 { return s.values[n] }

// setNet drives one net and, under the compiled engine, schedules its
// combinational readers when the value actually changed.
func (s *Simulator) setNet(n netlist.Net, v uint8) {
	if s.values[n] == v {
		return
	}
	s.values[n] = v
	if s.prog != nil {
		if r := s.prog.netRank[n]; r >= 0 {
			s.ov[r] = v
		}
		s.markFanout(int32(n))
	}
}

// SetPortBits drives a named input port with the given bit values
// (LSB first). The slice length must match the port width.
func (s *Simulator) SetPortBits(name string, bits []uint8) error {
	p, ok := s.n.InputPort(name)
	if !ok {
		return fmt.Errorf("logic: no input port %q on %s", name, s.n.Name)
	}
	if len(bits) != len(p.Nets) {
		return fmt.Errorf("logic: port %q width %d, got %d bits", name, len(p.Nets), len(bits))
	}
	for i, b := range bits {
		if b != 0 {
			s.setNet(p.Nets[i], 1)
		} else {
			s.setNet(p.Nets[i], 0)
		}
	}
	return nil
}

// SetPortUint drives up to 64 bits of a named input port from an integer
// (LSB first). Wider ports have their upper bits cleared.
func (s *Simulator) SetPortUint(name string, v uint64) error {
	p, ok := s.n.InputPort(name)
	if !ok {
		return fmt.Errorf("logic: no input port %q on %s", name, s.n.Name)
	}
	for i, net := range p.Nets {
		if i < 64 && v>>uint(i)&1 == 1 {
			s.setNet(net, 1)
		} else {
			s.setNet(net, 0)
		}
	}
	return nil
}

// PortBits samples a named output (or input) port, LSB first.
func (s *Simulator) PortBits(name string) ([]uint8, error) {
	p, ok := s.n.OutputPort(name)
	if !ok {
		p, ok = s.n.InputPort(name)
		if !ok {
			return nil, fmt.Errorf("logic: no port %q on %s", name, s.n.Name)
		}
	}
	bits := make([]uint8, len(p.Nets))
	for i, net := range p.Nets {
		bits[i] = s.values[net]
	}
	return bits, nil
}

// PortUint samples up to 64 bits of a named port as an integer.
func (s *Simulator) PortUint(name string) (uint64, error) {
	bits, err := s.PortBits(name)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i, b := range bits {
		if i >= 64 {
			break
		}
		if b != 0 {
			v |= 1 << uint(i)
		}
	}
	return v, nil
}

// Settle propagates the combinational logic with the current input and
// register values without advancing the clock. Most callers only need
// Tick; Settle is useful to observe cycle-0 combinational outputs.
func (s *Simulator) Settle() { s.settle() }

// Tick advances one clock cycle: flip-flops capture their (previously
// settled) D inputs at the rising edge, then the combinational logic
// settles with the new register outputs and any inputs applied since the
// last Tick.
func (s *Simulator) Tick() {
	s.cycle++
	if s.prog != nil {
		s.tickCompiled()
		return
	}
	// Phase 1: sample every D/enable before writing any Q so that
	// flip-flop chains shift correctly.
	for k, ci := range s.seq {
		c := &s.n.Cells[ci]
		switch c.Type {
		case netlist.DFF:
			s.newQ[k] = s.values[c.Inputs[0]]
		case netlist.DFFE:
			if s.values[c.Inputs[1]] != 0 {
				s.newQ[k] = s.values[c.Inputs[0]]
			} else {
				s.newQ[k] = s.values[c.Output]
			}
		}
	}
	// Phase 2: commit and report edges.
	for k, ci := range s.seq {
		out := s.n.Cells[ci].Output
		old := s.values[out]
		nv := s.newQ[k]
		if nv != old {
			s.values[out] = nv
			s.events = append(s.events, ToggleEvent(ci)<<1|ToggleEvent(nv))
		}
	}
	s.settle()
}

// Run advances the simulator n cycles.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Tick()
	}
}

// settle propagates pending changes through the engine in use, then,
// with accounting off, drops the events it appended.
func (s *Simulator) settle() {
	if s.prog != nil {
		s.settleCompiled()
	} else {
		s.settleReference()
	}
	if !s.batch {
		s.events = s.events[:0]
	}
}

// settleReference is the reference full-cone sweep in topological order.
func (s *Simulator) settleReference() {
	v := s.values
	for _, ci := range s.order {
		c := &s.n.Cells[ci]
		var nv uint8
		switch c.Type {
		case netlist.TieLo:
			nv = 0
		case netlist.TieHi:
			nv = 1
		case netlist.Buf:
			nv = v[c.Inputs[0]]
		case netlist.Inv:
			nv = v[c.Inputs[0]] ^ 1
		case netlist.And2:
			nv = v[c.Inputs[0]] & v[c.Inputs[1]]
		case netlist.Nand2:
			nv = (v[c.Inputs[0]] & v[c.Inputs[1]]) ^ 1
		case netlist.Or2:
			nv = v[c.Inputs[0]] | v[c.Inputs[1]]
		case netlist.Nor2:
			nv = (v[c.Inputs[0]] | v[c.Inputs[1]]) ^ 1
		case netlist.Xor2:
			nv = v[c.Inputs[0]] ^ v[c.Inputs[1]]
		case netlist.Xnor2:
			nv = v[c.Inputs[0]] ^ v[c.Inputs[1]] ^ 1
		case netlist.Mux2:
			if v[c.Inputs[2]] != 0 {
				nv = v[c.Inputs[1]]
			} else {
				nv = v[c.Inputs[0]]
			}
		}
		if old := v[c.Output]; nv != old {
			v[c.Output] = nv
			s.events = append(s.events, ToggleEvent(ci)<<1|ToggleEvent(nv))
		}
	}
}
