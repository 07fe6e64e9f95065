package aes

import (
	"sync"

	"emtrust/internal/logic"
	"emtrust/internal/netlist"
)

// SBoxToggleCharge returns, for every input value x, the switching
// charge (coulombs) drawn by one structural S-box cone when its input
// changes from 0x00 to x — the per-byte leakage profile of the load
// edge. Side-channel work calls this a profiled (template) model; here
// the template comes from the very netlist generator that built the
// chip, so it is exact up to placement.
func SBoxToggleCharge() [256]float64 {
	profileOnce.Do(buildProfile)
	return sboxProfile
}

var (
	profileOnce sync.Once
	sboxProfile [256]float64
)

func buildProfile() {
	b := netlist.NewBuilder("sbox_profile")
	in := b.Input("x", 8)
	b.Output("y", sboxNet(b, in))
	n := b.Build()
	sim, err := logic.New(n)
	if err != nil {
		panic(err) // generator bug: the S-box netlist must be acyclic
	}
	charge := make([]float64, len(n.Cells))
	for i, c := range n.Cells {
		charge[i] = c.Type.SwitchingCharge()
	}
	for x := 0; x < 256; x++ {
		// Settle at zero without counting, then transition to x and sum
		// the toggles' charge in occurrence order.
		sim.BatchToggles(false)
		sim.SetPortUint("x", 0)
		sim.Settle()
		sim.BatchToggles(true)
		sim.SetPortUint("x", uint64(x))
		sim.Settle()
		var total float64
		for _, e := range sim.TakeToggles() {
			total += charge[e.Cell()]
		}
		sboxProfile[x] = total
	}
}
