package logic

import (
	"math/bits"

	"emtrust/internal/netlist"
)

// The compiled engine lowers the levelized netlist into a flat
// instruction stream and replaces the full-cone settle sweep with
// event-driven selective evaluation. One instruction per combinational
// cell, indexed by its rank in the reference topological order, so
// selective evaluation visits exactly the cells the reference evaluator
// would have toggled, in exactly the same order: net values, toggle
// streams and therefore every downstream waveform stay bit-identical to
// the reference engine.
//
// Scheduling is a per-rank dirty bitset scanned in ascending rank
// order; because fanout ranks are strictly greater than the rank of the
// driving cell, a single forward scan per settle suffices. Everything
// the scan reads per rank (instruction, cached output value, toggle
// cell, fanout segment) is indexed by rank, so the ascending scan walks
// the arrays almost sequentially — the layout exists to keep the hot
// loop memory-bound on as few cache lines as possible. When the seeded
// dirty population is large (high-activity cycles) the scan gives way
// to a branchless full sweep of the instruction stream, which beats
// event bookkeeping once a significant fraction of the netlist is
// pending anyway; see settleCompiled.
type program struct {
	ins []instr // one per combinational cell, indexed by rank

	// Per-rank side arrays: the original cell index for toggle
	// reporting, and the cell's fanout as schedule-bitset updates.
	// Rank r's readers are the (word, mask) pairs
	// fanW/fanM[fanCum[r]:fanCum[r+1]], sorted ascending by word with
	// readers sharing a word pre-combined into one mask — one |= per
	// touched word instead of one per fanout edge.
	cellOf []int32
	fanW   []int32
	fanM   []uint64
	fanCum []int32

	// Per-net CSR fanout (readers of net n are
	// fanRank[fanStart[n]:fanStart[n+1]]), used to seed the dirty set
	// from port writes and flip-flop commits.
	fanStart []int32
	fanRank  []int32

	// netRank maps a net to the rank of the combinational cell driving
	// it (-1 for ports, flip-flop outputs and undriven nets), so setNet
	// can keep the per-rank output cache coherent.
	netRank []int32

	// Sequential cells in the reference commit order (ascending cell
	// index). en is -1 for a plain DFF.
	seqCell []int32
	seqD    []int32
	seqEn   []int32
	seqQ    []int32

	nwords int // len of the dirty bitset in 64-bit words
}

// instr is one compiled combinational cell, packed into 16 bytes so the
// ascending-rank scan streams four instructions per cache line. The
// opcode (netlist.CellType, < 16) rides in the top bits of outOp above
// the output net index. Unused input pins point at net 0, the reserved
// invalid net, which is never driven and reads as a constant 0; evalLUT
// rows account for that.
type instr struct {
	in0, in1, in2 int32
	outOp         int32 // output net | opcode<<netBits
}

const (
	netBits = 27
	netMask = 1<<netBits - 1
)

// evalLUT maps (opcode, packed input values) to the output value. The
// index packs in0 into bit 0, in1 into bit 1 and in2 into bit 2, so a
// gate evaluates in one load with no branches. Sequential opcodes keep
// all-zero rows; they are never evaluated through the LUT.
var evalLUT [16][8]uint8

func init() {
	for idx := 0; idx < 8; idx++ {
		a := uint8(idx & 1)
		b := uint8(idx >> 1 & 1)
		s := uint8(idx >> 2 & 1)
		evalLUT[netlist.TieLo][idx] = 0
		evalLUT[netlist.TieHi][idx] = 1
		evalLUT[netlist.Buf][idx] = a
		evalLUT[netlist.Inv][idx] = a ^ 1
		evalLUT[netlist.And2][idx] = a & b
		evalLUT[netlist.Nand2][idx] = (a & b) ^ 1
		evalLUT[netlist.Or2][idx] = a | b
		evalLUT[netlist.Nor2][idx] = (a | b) ^ 1
		evalLUT[netlist.Xor2][idx] = a ^ b
		evalLUT[netlist.Xnor2][idx] = a ^ b ^ 1
		if s != 0 {
			evalLUT[netlist.Mux2][idx] = b
		} else {
			evalLUT[netlist.Mux2][idx] = a
		}
	}
}

// compile lowers the netlist into the instruction stream. order is the
// reference topological order of combinational cells; seq the sequential
// cells in commit order. Returns nil when the design exceeds the packed
// net-index width (the caller falls back to the reference engine).
func compile(n *netlist.Netlist, order, seq []int) *program {
	if n.NumNets() > netMask {
		return nil
	}
	nc := len(order)
	p := &program{
		ins:    make([]instr, nc),
		cellOf: make([]int32, nc),
	}
	for r, ci := range order {
		c := &n.Cells[ci]
		it := &p.ins[r]
		it.outOp = int32(c.Output) | int32(c.Type)<<netBits
		p.cellOf[r] = int32(ci)
		switch len(c.Inputs) {
		case 3:
			it.in2 = int32(c.Inputs[2])
			fallthrough
		case 2:
			it.in1 = int32(c.Inputs[1])
			fallthrough
		case 1:
			it.in0 = int32(c.Inputs[0])
		}
	}
	// Per-net fanout CSR: count, prefix-sum, fill. Iterating ranks in
	// ascending order leaves each net's reader list sorted by rank. A
	// cell wired to the same net twice appears twice; scheduling is
	// idempotent.
	counts := make([]int32, n.NumNets())
	for _, ci := range order {
		for _, in := range n.Cells[ci].Inputs {
			counts[in]++
		}
	}
	p.fanStart = make([]int32, n.NumNets()+1)
	var total int32
	for net, cnt := range counts {
		p.fanStart[net] = total
		total += cnt
	}
	p.fanStart[n.NumNets()] = total
	p.fanRank = make([]int32, total)
	fill := make([]int32, n.NumNets())
	copy(fill, p.fanStart[:n.NumNets()])
	for r, ci := range order {
		for _, in := range n.Cells[ci].Inputs {
			p.fanRank[fill[in]] = int32(r)
			fill[in]++
		}
	}
	// Rank-ordered fanout as pre-combined bitset updates: each rank's
	// segment is its output net's reader list folded into (word, mask)
	// pairs. The reader ranks are sorted ascending, so readers sharing
	// a schedule word are adjacent and fold into one entry. Count each
	// rank's distinct reader words first, so both arrays are allocated
	// once at their final size, then fill.
	p.fanCum = make([]int32, nc+1)
	for r := range p.ins {
		o := p.ins[r].outOp & netMask
		words, lastW := int32(0), int32(-1)
		for _, fr := range p.fanRank[p.fanStart[o]:p.fanStart[o+1]] {
			if w := fr >> 6; w != lastW {
				lastW = w
				words++
			}
		}
		p.fanCum[r+1] = p.fanCum[r] + words
	}
	p.fanW = make([]int32, p.fanCum[nc])
	p.fanM = make([]uint64, p.fanCum[nc])
	for r := range p.ins {
		o := p.ins[r].outOp & netMask
		j, lastW := p.fanCum[r]-1, int32(-1)
		for _, fr := range p.fanRank[p.fanStart[o]:p.fanStart[o+1]] {
			if w := fr >> 6; w != lastW {
				lastW = w
				j++
				p.fanW[j] = w
			}
			p.fanM[j] |= 1 << (uint(fr) & 63)
		}
	}
	p.netRank = make([]int32, n.NumNets())
	for i := range p.netRank {
		p.netRank[i] = -1
	}
	for r := range p.ins {
		p.netRank[p.ins[r].outOp&netMask] = int32(r)
	}
	for _, ci := range seq {
		c := &n.Cells[ci]
		p.seqCell = append(p.seqCell, int32(ci))
		p.seqD = append(p.seqD, int32(c.Inputs[0]))
		if c.Type == netlist.DFFE {
			p.seqEn = append(p.seqEn, int32(c.Inputs[1]))
		} else {
			p.seqEn = append(p.seqEn, -1)
		}
		p.seqQ = append(p.seqQ, int32(c.Output))
	}
	p.nwords = (nc + 63) / 64
	return p
}

// syncOV rebuilds the per-rank output-value cache from the net values,
// restoring the invariant ov[r] == values[out(r)] after bulk value
// writes (state restore, reset).
func (s *Simulator) syncOV() {
	for r := range s.prog.ins {
		s.ov[r] = s.values[s.prog.ins[r].outOp&netMask]
	}
}

// markFanout schedules every combinational reader of net for
// re-evaluation. Callers invoke it only after actually changing the
// net's value.
func (s *Simulator) markFanout(net int32) {
	p := s.prog
	for _, fr := range p.fanRank[p.fanStart[net]:p.fanStart[net+1]] {
		w := int(fr) >> 6
		s.dirty[w] |= 1 << (uint(fr) & 63)
		if w < s.minW {
			s.minW = w
		}
		if w > s.maxW {
			s.maxW = w
		}
	}
}

// markAll schedules every combinational cell, turning the next settle
// into a full forward pass (used at construction, after Reset, and when
// restoring a state snapshot that carries no scheduling information).
func (s *Simulator) markAll() {
	nc := len(s.order)
	if nc == 0 {
		return
	}
	for w := range s.dirty {
		s.dirty[w] = ^uint64(0)
	}
	if rem := nc & 63; rem != 0 {
		s.dirty[len(s.dirty)-1] = 1<<uint(rem) - 1
	}
	s.minW, s.maxW = 0, len(s.dirty)-1
}

// denseDivisor sets the adaptive sweep threshold: when the seeded dirty
// population reaches len(ins)/denseDivisor, the scalar settle abandons
// event-driven scheduling for one straight linear sweep of the whole
// instruction stream. AES-style workloads are bursty — during the
// eleven round cycles most of the cone toggles and selective evaluation
// costs more in scheduling than it saves, while idle and lead-in/tail
// cycles are almost free either way. The sweep needs no fanout marking
// at all (every downstream rank is visited anyway), so its per-cell
// cost undercuts even the reference evaluator's; the sparse path keeps
// quiet cycles proportional to actual activity. A scalar seed count is
// one lane's activity, so a large one predicts a large cascade. In the
// wide engine the divisor gates only the fast path of WideState.Settle:
// there the seeds are the union over the lanes, and lanes that are each
// quiet (always-on Trojan payloads) pass the threshold together while
// their cascade stays small, so the wide settle also asks how much the
// last clock edge changed, and otherwise decides mid-scan.
const denseDivisor = 32

// settleCompiled propagates pending changes in ascending rank order.
// Cells whose inputs did not change either are never visited (sparse
// scan) or evaluate to their cached output value and report nothing
// (dense sweep) — exactly the cells the reference evaluator would
// toggle, in exactly the reference order, toggle either way. The output
// compare goes through the rank-indexed ov cache rather than the
// net-value array: same result, but the load is near-sequential in scan
// order instead of a random access per evaluation.
//
// The sparse scan compiles the toggle test to straight-line code: the
// event append is speculative (written then kept only when the output
// changed) and the fanout loop runs over a zero-masked-length segment
// when nothing toggled, so the data-dependent "did it toggle" branch —
// mispredicted on a third of evaluations under real workloads — stays
// out of the hot path.
func (s *Simulator) settleCompiled() {
	if s.maxW < s.minW {
		return
	}
	pend := 0
	for w := s.minW; w <= s.maxW; w++ {
		pend += bits.OnesCount64(s.dirty[w])
	}
	if pend >= len(s.prog.ins)/denseDivisor {
		s.settleSweep()
		return
	}
	p := s.prog
	ins := p.ins
	v := s.values
	ov := s.ov
	d := s.dirty
	lut := &evalLUT
	ev := s.events
	for w := s.minW; w <= s.maxW; w++ {
		// Snapshot the word into a register and clear it once: the scan
		// then pops bits without re-reading d[w], and fanout marks
		// landing in the current word (always the first entry of a
		// fanout segment, since segment words are sorted and >= the
		// driver's own word) fold into the register instead of the
		// store-to-load chain through memory.
		cur := d[w]
		if cur == 0 {
			continue
		}
		d[w] = 0
		for cur != 0 {
			t := bits.TrailingZeros64(cur)
			cur &^= 1 << uint(t)
			r := w<<6 | t
			it := ins[r]
			nv := lut[uint32(it.outOp)>>netBits][uint(v[it.in0])|uint(v[it.in1])<<1|uint(v[it.in2])<<2]
			chg := int32(nv ^ ov[r])
			ov[r] = nv
			v[it.outOp&netMask] = nv
			ev = append(ev, ToggleEvent(p.cellOf[r])<<1|ToggleEvent(nv))
			ev = ev[:len(ev)-1+int(chg)]
			start := p.fanCum[r]
			end := start + (p.fanCum[r+1]-start)&-chg
			j := start
			if j < end && int(p.fanW[j]) == w {
				cur |= p.fanM[j]
				j++
			}
			for ; j < end; j++ {
				d[p.fanW[j]] |= p.fanM[j]
			}
			if end > start {
				if fw := int(p.fanW[end-1]); fw > s.maxW {
					s.maxW = fw
				}
			}
		}
	}
	s.events = ev
	s.minW, s.maxW = len(d), -1
}

// settleSweep is the dense settle: one linear pass over the whole
// instruction stream in rank order, the reference algorithm run on the
// compiled layout (16-byte streamed instructions, branchless LUT
// evaluation, rank-indexed output cache). Clean cells evaluate to their
// cached value and report nothing, so the toggle stream is identical to
// both the sparse scan and the reference engine. No fanout marking
// happens — every rank after a toggling cell is visited anyway — and
// the schedule bitset is simply cleared. The whole loop body is
// branch-free (speculative event append, unconditional value stores):
// at round-cycle toggle rates the data-dependent toggle test
// mispredicts constantly, and removing it is worth more than the stores
// it saves.
func (s *Simulator) settleSweep() {
	p := s.prog
	ins := p.ins
	v := s.values
	ov := s.ov
	lut := &evalLUT
	ev := s.events
	for r := range ins {
		it := ins[r]
		nv := lut[uint32(it.outOp)>>netBits][uint(v[it.in0])|uint(v[it.in1])<<1|uint(v[it.in2])<<2]
		chg := int(nv ^ ov[r])
		ov[r] = nv
		v[it.outOp&netMask] = nv
		ev = append(ev, ToggleEvent(p.cellOf[r])<<1|ToggleEvent(nv))
		ev = ev[:len(ev)-1+chg]
	}
	s.events = ev
	for w := range s.dirty {
		s.dirty[w] = 0
	}
	s.minW, s.maxW = len(s.dirty), -1
}

// tickCompiled is the compiled engine's clock edge: the same two-phase
// flip-flop update as the reference, plus fanout scheduling for every Q
// that moved, then a selective settle.
func (s *Simulator) tickCompiled() {
	p := s.prog
	v := s.values
	for k := range p.seqCell {
		if en := p.seqEn[k]; en >= 0 && v[en] == 0 {
			s.newQ[k] = v[p.seqQ[k]]
		} else {
			s.newQ[k] = v[p.seqD[k]]
		}
	}
	for k, ci := range p.seqCell {
		q := p.seqQ[k]
		nv := s.newQ[k]
		if nv == v[q] {
			continue
		}
		v[q] = nv
		s.events = append(s.events, ToggleEvent(ci)<<1|ToggleEvent(nv))
		s.markFanout(q)
	}
	s.settle()
}
