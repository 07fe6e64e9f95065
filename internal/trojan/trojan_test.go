package trojan

import (
	"strings"
	"testing"

	"emtrust/internal/aes"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
)

// buildInfected builds an AES core with one Trojan attached.
func buildInfected(t testing.TB, kind Kind) (*netlist.Netlist, *logic.Simulator, *Instance) {
	t.Helper()
	b := netlist.NewBuilder("infected")
	core := aes.Generate(b)
	inst := Generate(b, core, kind, DefaultConfig())
	n := b.Build()
	sim, err := logic.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, sim, inst
}

func TestKindStrings(t *testing.T) {
	if T1AMLeaker.String() != "T1" || T4PowerHog.String() != "T4" {
		t.Fatal("Kind.String wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind string")
	}
	for _, k := range Kinds() {
		if k.Description() == "unknown" {
			t.Errorf("%v has no description", k)
		}
		if k.Region() == "" || k.TriggerPort() == "" {
			t.Errorf("%v missing region or port", k)
		}
	}
	if Kind(9).Description() != "unknown" {
		t.Fatal("unknown kind description")
	}
}

func TestKindsOrder(t *testing.T) {
	ks := Kinds()
	if len(ks) != 4 || ks[0] != T1AMLeaker || ks[3] != T4PowerHog {
		t.Fatalf("Kinds() = %v", ks)
	}
}

// Trojan sizes must track the Table I ordering: T3 << T1 < T2 ~= T4.
func TestTrojanSizeOrdering(t *testing.T) {
	b := netlist.NewBuilder("all")
	core := aes.Generate(b)
	for _, k := range Kinds() {
		Generate(b, core, k, DefaultConfig())
	}
	n := b.Build()
	aesCells := n.Stats("aes").Cells
	counts := make(map[Kind]int)
	for _, k := range Kinds() {
		counts[k] = n.Stats(k.Region()).Cells
		if counts[k] == 0 {
			t.Fatalf("%v generated no cells", k)
		}
	}
	if !(counts[T3CDMALeaker] < counts[T1AMLeaker] &&
		counts[T1AMLeaker] < counts[T2LeakageCurrent] &&
		counts[T1AMLeaker] < counts[T4PowerHog]) {
		t.Fatalf("size ordering violated: %v", counts)
	}
	// Percentages should be near Table I: 5.01, 8.44, 0.76, 8.44.
	want := map[Kind]float64{T1AMLeaker: 5.01, T2LeakageCurrent: 8.44, T3CDMALeaker: 0.76, T4PowerHog: 8.44}
	for k, pct := range want {
		got := 100 * float64(counts[k]) / float64(aesCells)
		if got < pct*0.7 || got > pct*1.3 {
			t.Errorf("%v share = %.2f%%, want within 30%% of %.2f%%", k, got, pct)
		}
	}
}

// A dormant Trojan must not disturb the AES function, and an active one
// must not either (all four are leakers/hogs, not corrupters).
func TestTrojansPreserveAESFunction(t *testing.T) {
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	pt := []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
	want := make([]byte, 16)
	aes.NewCipher(key).Encrypt(want, pt)

	for _, k := range Kinds() {
		_, sim, inst := buildInfected(t, k)
		drv := aes.NewDriver(sim)
		for _, trigger := range []uint64{0, 1} {
			sim.SetPortUint(k.TriggerPort(), trigger)
			got, err := drv.Encrypt(pt, key)
			if err != nil {
				t.Fatalf("%v trigger=%d: %v", k, trigger, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v trigger=%d corrupted AES output", k, trigger)
				}
			}
			_ = inst
		}
	}
}

// countRegionToggles runs one encryption and counts toggles inside the
// Trojan region.
func countRegionToggles(t *testing.T, kind Kind, trigger uint64) int {
	t.Helper()
	n, sim, _ := buildInfected(t, kind)
	region := kind.Region()
	inRegion := make([]bool, len(n.Cells))
	for i, c := range n.Cells {
		inRegion[i] = strings.HasPrefix(c.Region, region)
	}
	sim.SetPortUint(kind.TriggerPort(), trigger)
	sim.Settle()
	sim.Tick() // let the activation flag register the trigger
	drv := aes.NewDriver(sim)
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(0x35 + i)
	}
	pt := make([]byte, 16)
	// Warm-up encryption so one-time input propagation through the
	// Trojan's combinational taps is not counted.
	if _, err := drv.Encrypt(pt, key); err != nil {
		t.Fatal(err)
	}
	sim.BatchToggles(true)
	if _, err := drv.Encrypt(pt, key); err != nil {
		t.Fatal(err)
	}
	// Run extra idle cycles; leakers keep radiating between encryptions.
	sim.Run(64)
	count := 0
	for _, e := range sim.TakeToggles() {
		if inRegion[e.Cell()] {
			count++
		}
	}
	return count
}

// Dormant Trojans must be quiet; active ones must switch far more.
func TestTrojanActivityGatedByTrigger(t *testing.T) {
	for _, k := range Kinds() {
		dormant := countRegionToggles(t, k, 0)
		active := countRegionToggles(t, k, 1)
		if active <= dormant*10+10 {
			t.Errorf("%v: active toggles %d not >> dormant %d", k, active, dormant)
		}
	}
}

// T3 must be by far the quietest (it is the paper's hardest Trojan), and
// T2 and T4 — the "more registers" pair the paper groups together — must
// be of comparable loudness.
func TestActiveActivityOrdering(t *testing.T) {
	act := make(map[Kind]int)
	for _, k := range Kinds() {
		act[k] = countRegionToggles(t, k, 1)
	}
	for _, k := range []Kind{T1AMLeaker, T2LeakageCurrent, T4PowerHog} {
		if act[T3CDMALeaker]*3 > act[k] {
			t.Fatalf("T3 (%d toggles) must be far quieter than %v (%d)", act[T3CDMALeaker], k, act[k])
		}
	}
	// Raw toggle counts understate T2 (whose crowbar current draws no
	// toggles); just require the register-heavy pair to be within an
	// order of magnitude.
	lo, hi := act[T2LeakageCurrent], act[T4PowerHog]
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 8*lo {
		t.Fatalf("T2 (%d) and T4 (%d) toggles diverge too far", act[T2LeakageCurrent], act[T4PowerHog])
	}
}

// T2 exposes its crowbar leakage interface.
func TestT2LeakInterface(t *testing.T) {
	_, sim, inst := buildInfected(t, T2LeakageCurrent)
	if inst.LeakWire == netlist.InvalidNet {
		t.Fatal("T2 must expose its leak wire")
	}
	if inst.CrowbarPairs <= 0 {
		t.Fatal("T2 must report its crowbar pairs")
	}
	// The leak wire follows the shifted key bits once active. The
	// activation flag lags the trigger by one cycle, so tick first.
	sim.SetPortUint(T2LeakageCurrent.TriggerPort(), 1)
	sim.Settle()
	sim.Tick()
	drv := aes.NewDriver(sim)
	key := make([]byte, 16)
	key[0] = 0xFF
	if _, err := drv.Encrypt(make([]byte, 16), key); err != nil {
		t.Fatal(err)
	}
	seen := map[uint8]bool{}
	for i := 0; i < 600; i++ {
		sim.Tick()
		seen[sim.Net(inst.LeakWire)] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatal("T2 leak wire never changed while shifting key material")
	}
}

func TestGenerateUnknownKindPanics(t *testing.T) {
	b := netlist.NewBuilder("bad")
	core := aes.Generate(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(b, core, Kind(42), DefaultConfig())
}
