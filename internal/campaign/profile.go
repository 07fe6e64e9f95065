package campaign

import (
	"fmt"

	"emtrust/internal/frand"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
)

// profileLanes is the logical lane count of a profiling run. The
// stimulus of logical lane l is always the same regardless of how many
// physical wide lanes evaluate it, so signal probabilities are
// bit-identical at any lane count.
const profileLanes = logic.MaxLanes

// Profile holds per-net signal-probability estimates of a base design
// under random stimulus: P[net] is the fraction of observed cycles the
// net held 1. Rare-net trigger selection reads it.
type Profile struct {
	// P is indexed by net id (entry 0, the invalid net, is 0).
	P []float64
	// Samples is the number of (lane, cycle) observations per net.
	Samples int
}

// Rarity returns how rarely the net sits at its rare value:
// min(P, 1-P). A hard-to-excite trigger term has small rarity.
func (p *Profile) Rarity(n netlist.Net) float64 {
	pr := p.P[n]
	if pr > 0.5 {
		return 1 - pr
	}
	return pr
}

// RareValue returns the net's rare value: the value it holds less than
// half the time (1 on an exact tie, matching the AND-of-ones recipe).
func (p *Profile) RareValue(n netlist.Net) uint8 {
	if p.P[n] > 0.5 {
		return 0
	}
	return 1
}

// ProfileActivity estimates per-net signal probabilities by simulating
// `windows` windows of 64 random stimulus lanes each through the wide
// engine, accumulating per-net ones-counts every cycle. Lane stimulus
// is derived per (window, logical lane) from the seed, and windows are
// evaluated in chunks of `lanes` physical lanes, so the estimate is
// bit-identical for any lane count from 1 to 64.
func ProfileActivity(n *netlist.Netlist, stim Stimulus, windows, lanes int, seed int64) (*Profile, error) {
	if windows < 1 {
		return nil, fmt.Errorf("campaign: need at least 1 profile window")
	}
	if lanes < 1 || lanes > profileLanes {
		return nil, fmt.Errorf("campaign: profile lanes %d out of range", lanes)
	}
	sim, err := logic.New(n)
	if err != nil {
		return nil, err
	}
	w, err := sim.Wide()
	if err != nil {
		return nil, err
	}
	base := sim.State()

	widths := make([]int, len(stim.Ports))
	for pi, name := range stim.Ports {
		p, ok := n.InputPort(name)
		if !ok {
			return nil, fmt.Errorf("campaign: no input port %q on %s", name, n.Name)
		}
		widths[pi] = len(p.Nets)
	}

	counts := make([]uint64, n.NumNets())
	samples := 0
	states := make([]*logic.State, 0, lanes)
	portBits := make([][][]uint8, len(stim.Ports))
	for win := 0; win < windows; win++ {
		for lo := 0; lo < profileLanes; lo += lanes {
			chunk := lanes
			if lo+chunk > profileLanes {
				chunk = profileLanes - lo
			}
			states = states[:0]
			for l := 0; l < chunk; l++ {
				states = append(states, base)
			}
			for pi := range portBits {
				portBits[pi] = portBits[pi][:0]
			}
			for l := 0; l < chunk; l++ {
				rng := frand.NewRand(subSeed(seed, streamProfile, uint64(win*profileLanes+lo+l)))
				for pi, width := range widths {
					bits := make([]uint8, width)
					for i := range bits {
						bits[i] = uint8(rng.Int63() & 1)
					}
					portBits[pi] = append(portBits[pi], bits)
				}
			}
			err := driveWindow(w, states, stim, portBits, func(int) {
				w.AddNetOnes(counts)
				samples += chunk
			})
			if err != nil {
				return nil, err
			}
		}
	}

	prof := &Profile{P: make([]float64, n.NumNets()), Samples: samples}
	for i, c := range counts {
		prof.P[i] = float64(c) / float64(samples)
	}
	prof.P[netlist.InvalidNet] = 0
	return prof, nil
}
