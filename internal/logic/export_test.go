package logic

import (
	"fmt"

	"emtrust/internal/netlist"
)

// CheckCountedFanout compiles n and runs checkCountedFanout on the
// program, for tests in package logic_test that build netlists through
// packages importing logic.
func CheckCountedFanout(n *netlist.Netlist) error {
	s, err := New(n)
	if err != nil {
		return err
	}
	if s.prog == nil {
		return fmt.Errorf("%s did not compile", n.Name)
	}
	return checkCountedFanout(s.prog)
}
