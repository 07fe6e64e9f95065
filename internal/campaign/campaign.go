// Package campaign generates unbounded families of rare-trigger hardware
// Trojans and searches for stimuli that activate them, turning the
// paper's five hand-built threats into a swept scenario space.
//
// The package has three layers. The generator profiles per-net signal
// probabilities of a base design under random stimulus (one 64-lane
// wide simulation per window), selects k rare nets whose AND forms a
// stealthy trigger, and attaches an XOR payload onto a victim net — the
// classic rare-node insertion recipe. The stimulus-search layer evolves
// 64-lane stimulus populations toward partial-trigger activation behind
// one Searcher interface (GA, plain random, MERO-style bit-flip
// sensitization) at an equal simulation budget. The sweep harness in
// internal/experiments runs detector ROC over hundreds of generated
// members. Everything derives from one splitmix64-expanded campaign
// seed, so a whole campaign — member specs, infected netlists, search
// trajectories — is byte-reproducible at any worker or lane count.
package campaign

import (
	"fmt"
	"hash/fnv"

	"emtrust/internal/aes"
	"emtrust/internal/frand"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
)

// Stimulus describes how to drive a base design's inputs during
// profiling and trigger search: which ports carry fresh random (or
// genome) bits, which one-bit ports pulse high on the first cycle of a
// window (the AES start port), and how many cycles one stimulus window
// runs.
type Stimulus struct {
	// Ports lists the input buses driven with stimulus bits, in a fixed
	// order (the genome layout follows it).
	Ports []string
	// Pulse lists one-bit ports held high for the first cycle of each
	// window and low afterwards.
	Pulse []string
	// Window is the number of clock cycles per stimulus window.
	Window int
}

// AESStimulus drives the repository's AES core: random plaintext and
// key, a start pulse, and a window long enough to cover the 11-round
// encryption.
func AESStimulus() Stimulus {
	return Stimulus{
		Ports:  []string{aes.PortPT, aes.PortKey},
		Pulse:  []string{aes.PortStart},
		Window: aes.Latency + 3,
	}
}

// Seed streams: every independent consumer of campaign randomness draws
// from its own stream so no result depends on evaluation order.
const (
	streamProfile = 1 // profiling stimulus, indexed by logical lane
	streamMember  = 2 // member spec sampling, indexed by member id
	streamSearch  = 3 // search trajectories, indexed by (member, searcher)
)

// subSeed derives a deterministic non-negative seed from
// (seed, stream, index).
func subSeed(seed int64, stream, index uint64) int64 {
	h := frand.SplitMix64(uint64(seed) ^ 0x63616d7061696768) // "campaigh"
	h = frand.SplitMix64(h ^ stream)
	h = frand.SplitMix64(h ^ index)
	return int64(h >> 1)
}

// driveWindow loads one base state per lane, applies per-lane stimulus
// bits to every stimulus port, pulses the pulse ports for the first
// cycle, and clocks the window, invoking onCycle after every edge. It
// mirrors the chip's capture sequence (inputs settle inside the first
// cycle) so profiled probabilities match what captures exercise.
func driveWindow(w *logic.WideState, states []*logic.State, stim Stimulus, portBits [][][]uint8, onCycle func(cycle int)) error {
	if stim.Window < 1 {
		return fmt.Errorf("campaign: stimulus window %d", stim.Window)
	}
	if err := w.LoadStates(states); err != nil {
		return err
	}
	for pi, name := range stim.Ports {
		if err := w.SetPortLanesBits(name, portBits[pi]); err != nil {
			return err
		}
	}
	for _, p := range stim.Pulse {
		if err := w.SetPortUintAll(p, 1); err != nil {
			return err
		}
	}
	w.Settle()
	w.Tick()
	onCycle(0)
	for _, p := range stim.Pulse {
		if err := w.SetPortUintAll(p, 0); err != nil {
			return err
		}
	}
	w.Settle()
	for c := 1; c < stim.Window; c++ {
		w.Tick()
		onCycle(c)
	}
	return nil
}

// NetlistHash digests a netlist's full structure (cells, regions, loads,
// ports) into one 64-bit value. The determinism tests compare campaign
// netlists across worker and lane counts by hash, and the experiments
// report uses it as the byte-reproducibility witness.
func NetlistHash(n *netlist.Netlist) uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			u := uint64(v)
			for i := range buf {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	h.Write([]byte(n.Name))
	for _, c := range n.Cells {
		put(int64(c.Type), int64(c.Output), int64(len(c.Inputs)))
		for _, in := range c.Inputs {
			put(int64(in))
		}
		h.Write([]byte(c.Region))
		put(int64(c.Load * 1e18)) // attofarad resolution
	}
	for _, ports := range [][]netlist.Port{n.Inputs, n.Outputs} {
		for _, p := range ports {
			h.Write([]byte(p.Name))
			for _, net := range p.Nets {
				put(int64(net))
			}
		}
	}
	return h.Sum64()
}
