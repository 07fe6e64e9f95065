package chip

import (
	"math/bits"

	"emtrust/internal/frand"
	"emtrust/internal/logic"
)

// Lane retirement. From cycle 2 on a batched lane's ports are fixed, so
// its registers decide everything later: after a settle every
// combinational net is a function of the registers and the ports, and a
// cycle's toggles, their booking order, the T2 crowbar current and so
// the cycle's flux samples follow from the registers before and after
// its clock edge. When a lane's registers at cycle i equal those at
// cycle i-P, every later cycle repeats the cycle P before it. The lane
// then leaves the wide run (logic.WideState.Retire): it is no longer
// booked or flushed, and its recorder fills the rest of the window by
// the repeat (power.Recorder.Repeat). A pass whose lanes have all
// retired stops ticking. A lane whose A2 is armed never retires: the
// pump's analog state is outside the registers, and its bursts spill
// past their cycle.
//
// The wide engine hashes each lane's registers (logic.WideState.Watch).
// The nearest of a lane's last maxPeriod hashes that equals the current
// one, P cycles back, nominates period P; the lane's registers are
// copied then and must equal its registers P cycles later, bit for bit.
// The hash nominates and the compare decides, as the capture caches
// decide on ValuesEqual, never on a hash alone.

// maxPeriod is the longest register period a lane is watched for.
const maxPeriod = 64

// flopKey is flop k's register-hash key. Only tests replace it, to make
// the hash nominate every cycle.
var flopKey = func(k int) uint64 { return frand.SplitMix64(uint64(k)) }

// onRetire, when set, hears of every retired lane: its index in the
// pass, the cycle after which it retired, and its period. Only tests
// set it.
var onRetire func(lane, cycle, period int)

// laneWatch is one watched lane's retirement state.
type laneWatch struct {
	ring   [maxPeriod]uint64 // the last hashes; hash number n sits at n%maxPeriod
	seen   int               // hashes pushed
	period int               // the nominated period, or the retired lane's; 0 while none
	due    int               // cycle of the nomination's exact compare
	regs   []uint64          // registers when the period was nominated
}

// repeating runs the retirement decision after cycle's flush on each
// watched lane of the pass and returns the lanes whose registers now
// repeat; their laneWatch holds the period. The other watched lanes
// push their hash and may take a nomination.
func repeating(w *logic.WideState, lws []laneWatch, watched uint64, cycle int) (retired uint64) {
	for m := watched; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		lw := &lws[l]
		if lw.period > 0 && cycle == lw.due {
			if w.SameRegs(l, lw.regs) {
				retired |= 1 << uint(l)
				if onRetire != nil {
					onRetire(l, cycle, lw.period)
				}
				continue
			}
			lw.period = 0
		}
		h := w.LaneHash(l)
		if lw.period == 0 {
			for p := 1; p <= min(lw.seen, maxPeriod); p++ {
				if lw.ring[(lw.seen-p)%maxPeriod] == h {
					lw.period, lw.due = p, cycle+p
					lw.regs = w.LaneRegs(l, lw.regs)
					break
				}
			}
		}
		lw.ring[lw.seen%maxPeriod] = h
		lw.seen++
	}
	return retired
}
