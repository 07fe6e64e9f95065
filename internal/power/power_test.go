package power

import (
	"math"
	"math/rand"
	"testing"

	"emtrust/internal/emfield"
	"emtrust/internal/layout"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
)

// OnToggle is the one-event form of DrainToggles: it books the toggling
// cell's switching charge at its tile for the current cycle.
func (r *Recorder) OnToggle(cell int, _ bool) {
	r.cycleCharge[r.grid.CellTile[cell]] += r.charge[cell]
}

// Cycle returns how many cycles have been flushed.
func (r *Recorder) Cycle() int { return r.cycle }

// Config returns the recorder's configuration.
func (r *Recorder) Config() Config { return r.cfg }

// TotalCharge integrates all tile currents over the capture, for the
// charge-conservation checks.
func (r *Recorder) TotalCharge() float64 {
	dt := r.Dt()
	sum := 0.0
	for _, w := range r.currents {
		for _, v := range w {
			sum += v * dt
		}
	}
	return sum
}

// TileFFCount returns the number of flip-flops per tile (the clock-load
// map), read back from the per-tile clock-tree charge.
func (r *Recorder) TileFFCount() []int {
	counts := make([]int, r.grid.NumTiles())
	for t, q := range r.clockCharge {
		counts[t] = int(math.Round(q / r.cfg.ClockPinCharge))
	}
	return counts
}

// smallPlan builds a small placed netlist: an inverter chain plus a few
// flip-flops.
func smallPlan(t testing.TB) (*layout.Floorplan, *netlist.Netlist) {
	t.Helper()
	b := netlist.NewBuilder("small")
	in := b.Input("in", 1)
	b.SetRegion("logic")
	x := in[0]
	for i := 0; i < 10; i++ {
		x = b.Not(x)
	}
	q := b.Reg(x)
	b.Reg(q)
	b.Output("o", []netlist.Net{q})
	n := b.Build()
	cfg := layout.DefaultConfig()
	cfg.TilesX, cfg.TilesY = 4, 4
	fp, err := layout.Place(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fp, n
}

func TestNewRecorderValidation(t *testing.T) {
	fp, _ := smallPlan(t)
	bad := DefaultConfig()
	bad.ClockHz = 0
	if _, err := NewRecorder(bad, fp); err == nil {
		t.Fatal("zero clock must error")
	}
	bad = DefaultConfig()
	bad.PulseFraction = 0
	if _, err := NewRecorder(bad, fp); err == nil {
		t.Fatal("zero pulse fraction must error")
	}
}

func TestPulseShapeUnitCharge(t *testing.T) {
	cfg := DefaultConfig()
	shape := pulseShape(cfg)
	sum := 0.0
	for _, v := range shape {
		sum += v * cfg.Dt()
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pulse integral = %g, want 1", sum)
	}
	if len(shape) < 1 || len(shape) > cfg.SamplesPerCycle {
		t.Fatalf("pulse length %d", len(shape))
	}
}

func TestToggleChargeConservation(t *testing.T) {
	fp, n := smallPlan(t)
	cfg := DefaultConfig()
	cfg.ClockPinCharge = 0 // isolate toggle charge
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(4)
	// Toggle cell 0 twice in cycle 0 and cell 1 once in cycle 2.
	rec.OnToggle(0, true)
	rec.OnToggle(0, false)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	rec.OnToggle(1, true)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	want := 2*n.Cells[0].Type.SwitchingCharge() + n.Cells[1].Type.SwitchingCharge()
	if got := rec.TotalCharge(); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("total charge = %g, want %g", got, want)
	}
	if rec.Cycle() != 4 {
		t.Fatalf("cycle = %d", rec.Cycle())
	}
}

func TestClockTreeChargePerCycle(t *testing.T) {
	fp, _ := smallPlan(t)
	cfg := DefaultConfig()
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	ffs := 0
	for _, c := range rec.TileFFCount() {
		ffs += c
	}
	if ffs != 2 {
		t.Fatalf("flip-flop count = %d, want 2", ffs)
	}
	rec.Begin(3)
	for i := 0; i < 3; i++ {
		if err := rec.EndCycle(); err != nil {
			t.Fatal(err)
		}
	}
	want := 3 * 2 * cfg.ClockPinCharge
	if got := rec.TotalCharge(); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("clock charge = %g, want %g", got, want)
	}
}

func TestStaticCurrent(t *testing.T) {
	fp, _ := smallPlan(t)
	cfg := DefaultConfig()
	cfg.ClockPinCharge = 0
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(2)
	rec.AddStaticCurrent(3, 1e-3)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	// 1 mA over one cycle at 12 MHz = 83.3 pC.
	want := 1e-3 / cfg.ClockHz
	if got := rec.TotalCharge(); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("static charge = %g, want %g", got, want)
	}
	// Entirely inside cycle 0.
	w := rec.Currents()[3]
	for i := cfg.SamplesPerCycle; i < len(w); i++ {
		if w[i] != 0 {
			t.Fatal("static current leaked into the next cycle")
		}
	}
}

func TestFastToggles(t *testing.T) {
	fp, _ := smallPlan(t)
	cfg := DefaultConfig()
	cfg.ClockPinCharge = 0
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(1)
	rec.AddFastToggles(0, 4, 1e-15)
	rec.AddFastToggles(0, 0, 1e-15) // no-op
	rec.AddFastToggles(0, 2, 0)     // no-op
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	want := 4e-15
	if got := rec.TotalCharge(); math.Abs(got-want) > want*0.3 {
		// Pulses near the cycle end may clip; most charge must land.
		t.Fatalf("fast-toggle charge = %g, want ~%g", got, want)
	}
	// The four pulses must hit four distinct sub-cycle offsets.
	w := rec.Currents()[0]
	nonzero := 0
	for _, v := range w {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 4 {
		t.Fatalf("fast toggles occupy only %d samples", nonzero)
	}
}

func TestEndCyclePastCapture(t *testing.T) {
	fp, _ := smallPlan(t)
	rec, err := NewRecorder(DefaultConfig(), fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(1)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if err := rec.EndCycle(); err == nil {
		t.Fatal("EndCycle past capture must error")
	}
}

func TestBeginResetsState(t *testing.T) {
	fp, _ := smallPlan(t)
	cfg := DefaultConfig()
	cfg.ClockPinCharge = 0
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(1)
	rec.OnToggle(0, true)
	rec.AddStaticCurrent(0, 1)
	rec.AddFastToggles(0, 2, 1e-15)
	// Begin again without EndCycle: everything booked must vanish.
	rec.Begin(1)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if got := rec.TotalCharge(); got != 0 {
		t.Fatalf("stale activity survived Begin: %g", got)
	}
}

func TestDtAndConfig(t *testing.T) {
	cfg := DefaultConfig()
	want := 1 / (cfg.ClockHz * float64(cfg.SamplesPerCycle))
	if cfg.Dt() != want {
		t.Fatal("Dt wrong")
	}
	fp, _ := smallPlan(t)
	rec, _ := NewRecorder(cfg, fp)
	if rec.Dt() != want || rec.Config().ClockHz != cfg.ClockHz {
		t.Fatal("accessors wrong")
	}
}

func TestProcessVariation(t *testing.T) {
	fp, n := smallPlan(t)
	base := DefaultConfig()
	base.ClockPinCharge = 0

	varied := base
	varied.VariationSigma = 0.1
	varied.CornerSigma = 0.1
	varied.VariationSeed = 5

	charge := func(cfg Config) float64 {
		rec, err := NewRecorder(cfg, fp)
		if err != nil {
			t.Fatal(err)
		}
		rec.Begin(1)
		for i := range n.Cells {
			rec.OnToggle(i, true)
		}
		if err := rec.EndCycle(); err != nil {
			t.Fatal(err)
		}
		return rec.TotalCharge()
	}

	nominal := charge(base)
	sampleA := charge(varied)
	if sampleA == nominal {
		t.Fatal("variation had no effect")
	}
	// Same seed reproduces the same chip.
	if charge(varied) != sampleA {
		t.Fatal("variation not deterministic per seed")
	}
	// A different seed gives a different chip.
	other := varied
	other.VariationSeed = 6
	if charge(other) == sampleA {
		t.Fatal("different seeds must differ")
	}
	// Variation is bounded: within ~50% of nominal at sigma 0.1.
	if sampleA < nominal*0.5 || sampleA > nominal*1.5 {
		t.Fatalf("variation unreasonable: %g vs %g", sampleA, nominal)
	}
}

// TestForkMatchesNewRecorder pins Fork's contract: a fork of a
// recorder with process variation shares its tables and records the
// same activity bit-identically to a second NewRecorder of the same
// config and floorplan, and a capture on the fork leaves the source's
// waveforms alone.
func TestForkMatchesNewRecorder(t *testing.T) {
	fp, n := smallPlan(t)
	cfg := DefaultConfig()
	cfg.VariationSigma, cfg.CornerSigma, cfg.VariationSeed = 0.1, 0.1, 9
	src, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	fork := src.Fork()
	if &fork.charge[0] != &src.charge[0] || &fork.clockCharge[0] != &src.clockCharge[0] || &fork.pulse[0] != &src.pulse[0] {
		t.Fatal("fork copied a table instead of sharing it")
	}
	record := func(r *Recorder) [][]float64 {
		r.Begin(3)
		for cycle := 0; cycle < 3; cycle++ {
			var batch []logic.ToggleEvent
			for i := cycle; i < len(n.Cells); i += 2 {
				batch = append(batch, logic.ToggleEvent(i)<<1)
			}
			r.DrainToggles(batch)
			r.AddStaticCurrent(cycle, 1e-6)
			r.AddFastToggles(1, 3, 2e-15)
			if err := r.EndCycle(); err != nil {
				t.Fatal(err)
			}
		}
		return r.Currents()
	}
	want := record(fresh)
	src.Begin(1)
	got := record(fork)
	for tile := range want {
		for i, v := range want[tile] {
			if got[tile][i] != v {
				t.Fatalf("tile %d sample %d: fork %v, NewRecorder %v", tile, i, got[tile][i], v)
			}
		}
	}
	if len(src.Currents()[0]) != cfg.SamplesPerCycle {
		t.Fatalf("fork's capture resized the source's waveforms to %d samples", len(src.Currents()[0]))
	}
}

// TestDrainTogglesMatchesOnToggle pins the batched-accounting contract:
// draining a toggle batch produces bit-identical waveforms to calling
// OnToggle per event, because the drain walks the batch in occurrence
// order performing the same float additions.
func TestDrainTogglesMatchesOnToggle(t *testing.T) {
	fp, n := smallPlan(t)
	cfg := DefaultConfig()
	recA, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	// A toggle sequence hitting the same cells repeatedly, in an order
	// where float-add reordering would show up if the drain grouped or
	// reordered events.
	cells := []int{0, 3, 1, 0, 2, 0, 5, int(uint(len(n.Cells) - 1)), 1, 0}
	recA.Begin(2)
	recB.Begin(2)
	for cycle := 0; cycle < 2; cycle++ {
		var batch []logic.ToggleEvent
		for i, cell := range cells {
			rise := i%2 == 0
			recA.OnToggle(cell, rise)
			e := logic.ToggleEvent(cell) << 1
			if rise {
				e |= 1
			}
			batch = append(batch, e)
		}
		recB.DrainToggles(batch)
		if err := recA.EndCycle(); err != nil {
			t.Fatal(err)
		}
		if err := recB.EndCycle(); err != nil {
			t.Fatal(err)
		}
	}
	wa, wb := recA.Currents(), recB.Currents()
	for tile := range wa {
		for i := range wa[tile] {
			if wa[tile][i] != wb[tile][i] {
				t.Fatalf("tile %d sample %d: per-event %v != drained %v", tile, i, wa[tile][i], wb[tile][i])
			}
		}
	}
}

// TestFluxLaneMatchesTileRecorder is the projection's property test:
// under random per-cycle toggles, static currents and fast-toggle
// events, a flux lane's flux must equal, bit for bit, the flux of a
// tile-keeping recorder with the same coils fed the same activity, and
// the emf of both must stay within 1e-12 of the waveform's peak of
// Coupling.EMFInto over that recorder's tile waveforms. The events
// include counts above 2×SamplesPerCycle (pulses carried several cycles
// on), events in the last cycle truncated at the window end, windows of
// 1 and 2 cycles, and captures abandoned halfway.
func TestFluxLaneMatchesTileRecorder(t *testing.T) {
	fp, n := smallPlan(t)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(7))
	tiles, s := fp.Grid.NumTiles(), cfg.SamplesPerCycle
	coils := make([]*emfield.Coupling, 2)
	weights := make([][]float64, len(coils))
	for k := range coils {
		m := make([]float64, tiles)
		for tile := range m {
			if rng.Intn(5) > 0 { // some tiles do not couple at all
				m[tile] = (rng.Float64() - 0.3) * 1e-9
			}
		}
		coils[k], weights[k] = &emfield.Coupling{M: m}, m
	}
	rec, err := NewRecorder(cfg, fp, weights...)
	if err != nil {
		t.Fatal(err)
	}
	lane := rec.FluxLane()
	wide := WideToggles([]*Recorder{lane})
	// activity books one random cycle on both recorders; last marks the
	// window's final cycle, which always gets a long fast-toggle burst.
	activity := func(last bool) {
		var batch []logic.ToggleEvent
		for k := rng.Intn(12); k > 0; k-- {
			batch = append(batch, logic.ToggleEvent(rng.Intn(len(n.Cells)))<<1)
		}
		rec.DrainToggles(batch)
		for _, e := range batch {
			wide(int32(e.Cell()), 1, 0)
		}
		if rng.Intn(3) == 0 {
			tile, amps := rng.Intn(tiles), rng.Float64()*1e-6
			rec.AddStaticCurrent(tile, amps)
			lane.AddStaticCurrent(tile, amps)
		}
		events := rng.Intn(3)
		if last {
			events++
		}
		for k := 0; k < events; k++ {
			tile, q := rng.Intn(tiles), rng.Float64()*1e-12
			count := 1 + rng.Intn(3*s)
			if last && k == 0 {
				count = 2*s + 1 + rng.Intn(s)
			}
			rec.AddFastToggles(tile, count, q)
			lane.AddFastToggles(tile, count, q)
		}
	}
	for trial := 0; trial < 300; trial++ {
		cycles := []int{1, 2, 3, 4, 7, 33}[trial%6]
		if trial%5 == 4 { // abandon a capture with pulses carried past its cycles
			lane.Begin(3)
			rec.Begin(3)
			activity(true)
			if err := lane.EndCycle(); err != nil {
				t.Fatal(err)
			}
		}
		rec.Begin(cycles)
		lane.Begin(cycles)
		for c := 0; c < cycles; c++ {
			activity(c == cycles-1)
			if err := rec.EndCycle(); err != nil {
				t.Fatal(err)
			}
			if err := lane.EndCycle(); err != nil {
				t.Fatal(err)
			}
		}
		for k, cp := range coils {
			want, got := rec.Flux()[k], lane.Flux()[k]
			if len(got) != cycles*s || len(want) != cycles*s {
				t.Fatalf("trial %d coil %d: flux of %d and %d samples, want %d", trial, k, len(got), len(want), cycles*s)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d (%d cycles) coil %d sample %d: flux lane %v, tile recorder %v", trial, cycles, k, i, got[i], want[i])
				}
			}
			ref := cp.EMFInto(nil, rec.Currents(), rec.Dt())
			emf := emfield.FluxToEMF(got, lane.Dt())
			peak := 0.0
			for _, v := range ref {
				peak = max(peak, math.Abs(v))
			}
			for i := range ref {
				if d := math.Abs(emf[i] - ref[i]); d > 1e-12*peak {
					t.Fatalf("trial %d (%d cycles) coil %d sample %d: projected emf %v, EMFInto %v (|diff| %.3g of peak)", trial, cycles, k, i, emf[i], ref[i], d/peak)
				}
			}
		}
	}
}

// TestFluxLaneRepeatMatchesPeriodicActivity pins Repeat: a recorder
// driven to the end of its window by activity that turns periodic after
// a few warm-up cycles must equal, bit for bit in its flux and its tile
// waveforms, one driven only up to some cycle past the first period and
// then filled by the repeat; on flux lanes and on tile-keeping
// recorders, at periods from 1 to 6. A period of 0 or longer than the
// cycles recorded is an error.
func TestFluxLaneRepeatMatchesPeriodicActivity(t *testing.T) {
	fp, n := smallPlan(t)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(11))
	tiles := fp.Grid.NumTiles()
	weights := make([][]float64, 2)
	for k := range weights {
		weights[k] = make([]float64, tiles)
		for tile := range weights[k] {
			weights[k][tile] = (rng.Float64() - 0.3) * 1e-9
		}
	}
	rec, err := NewRecorder(cfg, fp, weights...)
	if err != nil {
		t.Fatal(err)
	}
	// A cycle's activity: toggle batches and static currents, no bursts.
	type cycleActivity struct {
		toggles []logic.ToggleEvent
		tile    int
		amps    float64
	}
	randomCycle := func() cycleActivity {
		a := cycleActivity{tile: rng.Intn(tiles)}
		for k := rng.Intn(12); k > 0; k-- {
			a.toggles = append(a.toggles, logic.ToggleEvent(rng.Intn(len(n.Cells)))<<1)
		}
		if rng.Intn(2) == 0 {
			a.amps = rng.Float64() * 1e-6
		}
		return a
	}
	for trial := 0; trial < 200; trial++ {
		period, warm := 1+rng.Intn(6), rng.Intn(5)
		cycles := warm + 2*period + rng.Intn(40)
		cut := warm + period + rng.Intn(cycles-warm-period+1)
		schedule := make([]cycleActivity, warm+period)
		for c := range schedule {
			schedule[c] = randomCycle()
		}
		at := func(c int) cycleActivity {
			if c >= warm {
				c = warm + (c-warm)%period
			}
			return schedule[c]
		}
		for _, fresh := range []func() *Recorder{rec.FluxLane, rec.Fork} {
			full, repeated := fresh(), fresh()
			full.Begin(cycles)
			repeated.Begin(cycles)
			for c := 0; c < cycles; c++ {
				a := at(c)
				for _, r := range []*Recorder{full, repeated} {
					if r == repeated && c >= cut {
						continue
					}
					r.DrainToggles(a.toggles)
					r.AddStaticCurrent(a.tile, a.amps)
					if err := r.EndCycle(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := repeated.Repeat(period); err != nil {
				t.Fatal(err)
			}
			if err := repeated.EndCycle(); err == nil {
				t.Fatal("EndCycle after a repeat must report the window full")
			}
			want := append(full.Flux(), full.Currents()...)
			got := append(repeated.Flux(), repeated.Currents()...)
			for k := range want {
				for i := range want[k] {
					if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
						t.Fatalf("trial %d (period %d, %d warm-up, cut at %d of %d cycles) waveform %d sample %d: repeated %v, driven %v",
							trial, period, warm, cut, cycles, k, i, got[k][i], want[k][i])
					}
				}
			}
		}
	}
	r := rec.FluxLane()
	r.Begin(8)
	if err := r.EndCycle(); err != nil {
		t.Fatal(err)
	}
	for _, period := range []int{0, 2} {
		if err := r.Repeat(period); err == nil {
			t.Errorf("Repeat(%d) after one cycle succeeded", period)
		}
	}
}
