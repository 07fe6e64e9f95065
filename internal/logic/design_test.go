package logic_test

import (
	"testing"

	"emtrust/internal/chip"
	"emtrust/internal/logic"
)

// TestCompiledFanoutMatchesAppendOnInfectedDesign runs the counted
// fanout check on the default infected design (the AES, the four
// Trojans and A2): the netlist every paper figure simulates.
func TestCompiledFanoutMatchesAppendOnInfectedDesign(t *testing.T) {
	c, err := chip.New(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := logic.CheckCountedFanout(c.Netlist()); err != nil {
		t.Fatal(err)
	}
}
