package chip

import (
	"fmt"
	"testing"

	"emtrust/internal/trojan"
)

// retirement is one retired lane's cycle and period.
type retirement struct{ cycle, period int }

// recordRetirements makes every lane retirement land in the returned
// map, keyed by the lane's index in its pass, until the test ends.
func recordRetirements(t *testing.T) map[int]retirement {
	t.Helper()
	got := make(map[int]retirement)
	onRetire = func(lane, cycle, period int) { got[lane] = retirement{cycle, period} }
	t.Cleanup(func() { onRetire = nil })
	return got
}

// singleTrojanStarts returns start chips of the infected design with
// the A2 disarmed: the dormant chip, then one chip per Trojan in
// trojan.Kinds() order with only that Trojan active.
func singleTrojanStarts(t *testing.T, base *Chip) []*Chip {
	t.Helper()
	dormant := base.Clone()
	if err := dormant.DeactivateAll(); err != nil {
		t.Fatal(err)
	}
	dormant.EnableA2(false)
	starts := []*Chip{dormant}
	for _, k := range trojan.Kinds() {
		on := dormant.Clone()
		if err := on.SetTrojan(k, true); err != nil {
			t.Fatal(err)
		}
		starts = append(starts, on)
	}
	return starts
}

// TestCaptureBatchRetirementPoints pins when Figure 6(i)-(l)'s lanes
// retire at the default configuration and chip seed 1234: eleven
// random-plaintext lanes from the dormant chip and one from each
// single-Trojan chip, 512 cycles. The dormant lanes repeat with the
// clock divider's period 4: their hash nominates the period at cycle
// 16 and they retire after cycle 20. T4's lane, a 1-in-6 pattern on an
// 870-stage ring, retires after cycle 36 with period 12. T1's key ring,
// T2's leakage ring and T3's LFSR do not repeat inside the window.
func TestCaptureBatchRetirementPoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1234
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	starts := singleTrojanStarts(t, c)
	const nGolden = 11
	from := make([]*Chip, 0, nGolden+len(trojan.Kinds()))
	for range nGolden {
		from = append(from, starts[0])
	}
	from = append(from, starts[1:]...)
	pts := make([][]byte, len(from))
	stream := c.NextStream()
	for i := range pts {
		pts[i] = make([]byte, 16)
		c.SplitRand(stream, uint64(i)).Read(pts[i])
	}
	got := recordRetirements(t)
	caps, err := c.CaptureLanes(from, pts, testKey, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]retirement{nGolden + 3: {36, 12}}
	for l := range nGolden {
		want[l] = retirement{20, 4}
	}
	for l := range from {
		g, gok := got[l]
		w, wok := want[l]
		if g != w || gok != wok {
			t.Errorf("lane %d retired %v (%v), want %v (%v)", l, g, gok, w, wok)
		}
	}
	checkLanes(t, "figure 6 lanes", from, pts, caps, 512)
}

// TestCaptureBatchRetiringLanesMatchScalar: lanes from the dormant chip
// and from each single-Trojan chip, A2 disarmed, match scalar captures
// at 16, 33 and 512 cycles. With the shipped flop keys the dormant
// lanes retire in the 33- and 512-cycle windows and T4's in the
// 512-cycle one; T1-T3 repeat with periods beyond maxPeriod, if at
// all. With every key 0 each cycle's hash equals the last one's and
// nominates period 1, which no lane's registers have, so every cycle
// runs the exact compare and nothing retires.
func TestCaptureBatchRetiringLanesMatchScalar(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	starts := singleTrojanStarts(t, c)
	recv := c.Clone()
	from, pts := laneSet(starts, len(starts))
	keys := flopKey
	defer func() { flopKey = keys }()
	for _, zero := range []bool{false, true} {
		flopKey = keys
		if zero {
			flopKey = func(int) uint64 { return 0 }
		}
		for _, cycles := range []int{16, 33, 512} {
			label := fmt.Sprintf("zero keys %v, %d cycles", zero, cycles)
			got := recordRetirements(t)
			caps, err := recv.CaptureLanes(from, pts, testKey, cycles)
			if err != nil {
				t.Fatal(err)
			}
			checkLanes(t, label, from, pts, caps, cycles)
			for l := range from {
				_, retired := got[l]
				want := from[l] == starts[0] && cycles >= 33 || from[l] == starts[4] && cycles == 512
				if want = want && !zero; retired != want {
					t.Errorf("%s: lane %d retired %v, want %v", label, l, retired, want)
				}
			}
		}
	}
}
