package netlist

import (
	"fmt"
	"testing"
)

func TestReplaceFanout(t *testing.T) {
	b := NewBuilder("fanout")
	in := b.Input("in", 2)
	victim := b.And(in[0], in[1])
	r1 := b.Not(victim)
	r2 := b.Or(victim, in[0])
	b.Output("out", []Net{victim, r1, r2})

	limit := b.NumCells()
	repl := b.Xor(victim, in[1]) // reads victim, but sits above limit
	n := b.ReplaceFanout(victim, repl, limit)
	// Rewired: r1's pin, one of r2's pins, and the output-port slot.
	if n != 3 {
		t.Fatalf("ReplaceFanout rewired %d pins, want 3", n)
	}
	net := b.Build()
	for _, c := range net.Cells[limit:] {
		for _, in := range c.Inputs {
			if in == repl {
				t.Fatalf("cell above limit rewired onto replacement")
			}
		}
	}
	out, _ := net.OutputPort("out")
	if out.Nets[0] != repl {
		t.Errorf("output port still reads %d, want %d", out.Nets[0], repl)
	}
	if err := net.Check(); err != nil {
		t.Fatalf("rewired netlist invalid: %v", err)
	}
	if b.ReplaceFanout(victim, victim, 0) != 0 {
		t.Errorf("self-replacement should rewire nothing")
	}
}

func TestGateEquivalentsSince(t *testing.T) {
	b := NewBuilder("ge")
	in := b.Input("in", 1)
	b.Not(in[0]) // 0.5 GE, before the mark
	mark := b.NumCells()
	b.Buf(in[0])        // 0.75
	b.And(in[0], in[0]) // 1.25
	b.Reg(in[0])        // 5.0
	if got := b.GateEquivalentsSince(mark); got != 7.0 {
		t.Errorf("GateEquivalentsSince = %v, want 7.0", got)
	}
	if got := b.GateEquivalentsSince(0); got != 7.5 {
		t.Errorf("GateEquivalentsSince(0) = %v, want 7.5", got)
	}
}

// TestCloneIsolated edits one clone through every write path a chip
// build uses (new cells, a constant tie, ReplaceFanout, PatchCellInput,
// SetNetLoad) and checks that the base builder and a sibling clone
// still build exactly what they built before.
func TestCloneIsolated(t *testing.T) {
	base := NewBuilder("base")
	in := base.Input("in", 2)
	victim := base.And(in[0], in[1])
	reader := base.Not(victim)
	cnt := base.Counter(2, InvalidNet) // creates the Low tie
	base.Output("out", []Net{victim, reader, cnt[0]})
	digest := func(b *Builder) (s string) {
		defer func() {
			if r := recover(); r != nil {
				s = fmt.Sprint("Build panicked: ", r)
			}
		}()
		n := b.Build()
		return fmt.Sprint(n.Name, n.Cells, n.Inputs, n.Outputs, n.driver)
	}
	sibling := base.Clone("sibling")
	wantBase, wantSibling := digest(base), digest(sibling)

	clone := base.Clone("edited")
	limit := clone.NumCells()
	if clone.Low() != base.Low() {
		t.Fatal("clone made a new Low tie")
	}
	repl := clone.Xor(victim, clone.High())
	if clone.ReplaceFanout(victim, repl, limit) != 2 {
		t.Fatal("ReplaceFanout rewired the wrong pins")
	}
	clone.PatchCellInput(limit-1, 0, in[1])
	clone.PatchCellInput(0, 1, in[0])
	clone.SetNetLoad(victim, 1e-12)
	if got := digest(clone); got == wantBase {
		t.Fatal("edits left the clone unchanged")
	}

	if got := digest(base); got != wantBase {
		t.Errorf("base changed after editing a clone:\n got %s\nwant %s", got, wantBase)
	}
	if got := digest(sibling); got != wantSibling {
		t.Errorf("sibling clone changed after editing another:\n got %s\nwant %s", got, wantSibling)
	}
	if got := digest(base.Clone("sibling")); got != wantSibling {
		t.Errorf("a fresh clone differs from the first")
	}
}
