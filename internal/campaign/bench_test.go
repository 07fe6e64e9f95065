package campaign

import (
	"fmt"

	"emtrust/internal/frand"
	"emtrust/internal/netlist"
)

// BenchConfig sizes a generated benchmark design: a random acyclic gate
// cloud over an input bus plus a register file feeding back into it.
// The campaign tests use families of these (hundreds of seeds) to
// exercise the generator and the engine-differential harness on designs
// other than the AES core.
type BenchConfig struct {
	Seed   int64
	Inputs int
	Gates  int
	FFs    int
	// Window is the stimulus window length in cycles.
	Window int
}

// DefaultBench is a small design that still offers plenty of rare nets.
func DefaultBench(seed int64) BenchConfig {
	return BenchConfig{Seed: seed, Inputs: 16, Gates: 120, FFs: 12, Window: 6}
}

// BuildBench emits the benchmark circuit into b and returns the
// stimulus that drives it. Gates draw operands only from already-built
// nets, so the combinational cloud is acyclic by construction; register
// D inputs are patched afterwards and may close sequential loops
// through the whole pool. The same config always builds the same
// netlist.
func BuildBench(b *netlist.Builder, cfg BenchConfig) (Stimulus, error) {
	if cfg.Inputs < 1 || cfg.Gates < 1 || cfg.Window < 1 {
		return Stimulus{}, fmt.Errorf("campaign: bench config needs inputs, gates, window >= 1")
	}
	rng := frand.NewRand(subSeed(cfg.Seed, streamMember, 0xbe9c))
	b.PushRegion("bench")
	defer b.PopRegion()

	pool := b.Input("in", cfg.Inputs)
	// Registers first, on a placeholder D, so the gate cloud can read
	// machine state and rare nets can depend on it.
	regCells := make([]int, cfg.FFs)
	for i := range regCells {
		pool = append(pool, b.Reg(b.Low()))
		regCells[i] = b.NumCells() - 1
	}
	pick := func() netlist.Net { return pool[rng.Intn(len(pool))] }
	for g := 0; g < cfg.Gates; g++ {
		var n netlist.Net
		switch rng.Intn(7) {
		case 0:
			n = b.And(pick(), pick())
		case 1:
			n = b.Or(pick(), pick())
		case 2:
			n = b.Xor(pick(), pick())
		case 3:
			n = b.Nand(pick(), pick())
		case 4:
			n = b.Nor(pick(), pick())
		case 5:
			n = b.Not(pick())
		default:
			n = b.Mux(pick(), pick(), pick())
		}
		pool = append(pool, n)
	}
	// Close the sequential loops: every register samples a random net.
	for _, ci := range regCells {
		b.PatchCellInput(ci, 0, pick())
	}
	outs := make([]netlist.Net, 8)
	for i := range outs {
		outs[i] = pool[len(pool)-1-i%len(pool)]
	}
	b.Output("out", outs)
	return Stimulus{Ports: []string{"in"}, Window: cfg.Window}, nil
}
