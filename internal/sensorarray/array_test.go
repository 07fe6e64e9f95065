package sensorarray

import (
	"testing"

	"emtrust/internal/chip"
	"emtrust/internal/layout"
	"emtrust/internal/parallel"
)

// CellDist returns the Chebyshev (chessboard) distance between two
// cells: 0 same cell, 1 adjacent (including diagonals).
func (a *Array) CellDist(k1, k2 int) int {
	x1, y1 := a.CellXY(k1)
	x2, y2 := a.CellXY(k2)
	dx, dy := x1-x2, y1-y2
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dy > dx {
		return dy
	}
	return dx
}

// testFloorplan builds a synthetic placement view: the array only needs
// the die outline and the tile grid, not real cell positions.
func testFloorplan() *layout.Floorplan {
	die := layout.Point{X: 1e-3, Y: 1e-3}
	return &layout.Floorplan{
		Die:  die,
		Grid: &layout.TileGrid{NX: 16, NY: 16, Die: die},
	}
}

func TestArrayGeometry(t *testing.T) {
	fp := testFloorplan()
	a, err := New(fp, Config{NX: 4, NY: 4, Turns: 3, Z: 5e-6, TileLoopArea: 25e-12, Quad: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCoils() != 16 || len(a.Couplings) != 16 {
		t.Fatalf("want 16 coils, got %d/%d", a.NumCoils(), len(a.Couplings))
	}
	// Cell index round-trips through its own center, and the center lands
	// in the expected grid cell.
	for k := 0; k < a.NumCoils(); k++ {
		if got := a.CellOf(a.CellCenter(k)); got != k {
			t.Errorf("CellOf(CellCenter(%d)) = %d", k, got)
		}
	}
	if c := a.CellCenter(0); c.X != 0.125e-3 || c.Y != 0.125e-3 {
		t.Errorf("cell 0 center = %+v", c)
	}
	// Clamping: points off the die map to border cells.
	if got := a.CellOf(layout.Point{X: -1, Y: -1}); got != 0 {
		t.Errorf("CellOf(off-die SW) = %d", got)
	}
	if got := a.CellOf(layout.Point{X: 2e-3, Y: 2e-3}); got != 15 {
		t.Errorf("CellOf(off-die NE) = %d", got)
	}
	// Neighbor counts: corner 3, edge 5, interior 8; all 8-connected.
	if n := a.Neighbors(0); len(n) != 3 {
		t.Errorf("corner neighbors = %v", n)
	}
	if n := a.Neighbors(1); len(n) != 5 {
		t.Errorf("edge neighbors = %v", n)
	}
	if n := a.Neighbors(5); len(n) != 8 {
		t.Errorf("interior neighbors = %v", n)
	}
	for _, n := range a.Neighbors(5) {
		if a.CellDist(5, n) != 1 {
			t.Errorf("neighbor %d of 5 at distance %d", n, a.CellDist(5, n))
		}
	}
	if d := a.CellDist(0, 15); d != 3 {
		t.Errorf("CellDist(corner, corner) = %d", d)
	}
}

// TestOneByOneMatchesWholeDieSpiral pins that the 1×1 array degenerates
// to the paper's whole-die spiral: both are the 1×1 spiral grid, so they
// share one coupling-cache entry.
func TestOneByOneMatchesWholeDieSpiral(t *testing.T) {
	cc := chip.DefaultConfig()
	cc.WithTrojans = false
	cc.WithA2 = false
	c, err := chip.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(c.Floorplan(), ConfigFor(cc, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Couplings[0] != c.SensorCoupling() {
		t.Error("1x1 array coupling is not the chip's whole-die sensor coupling")
	}
	if a.Neighbors(0) != nil {
		t.Errorf("1x1 array has neighbors: %v", a.Neighbors(0))
	}
}

// TestNewRejectsZeroTurns pins that a coil turn count below 1 is an
// error, for the array's cells and for the chip's own sensor and probe.
func TestNewRejectsZeroTurns(t *testing.T) {
	if _, err := New(testFloorplan(), Config{NX: 2, NY: 2, Turns: 0, Z: 5e-6, TileLoopArea: 25e-12, Quad: 8}); err == nil {
		t.Error("sensorarray.New accepted 0 turns")
	}
	for _, zero := range []func(*chip.Config){
		func(c *chip.Config) { c.SpiralTurns = 0 },
		func(c *chip.Config) { c.ProbeTurns = 0 },
	} {
		cfg := chip.DefaultConfig()
		zero(&cfg)
		if _, err := chip.New(cfg); err == nil {
			t.Errorf("chip.New accepted spiral %d, probe %d turns", cfg.SpiralTurns, cfg.ProbeTurns)
		}
	}
}

// quadrantArray builds the 2×2 array — the per-quadrant spirals — over
// a die of the given size.
func quadrantArray(t *testing.T, die layout.Point) *Array {
	t.Helper()
	fp := &layout.Floorplan{Die: die, Grid: &layout.TileGrid{NX: 4, NY: 4, Die: die}}
	a, err := New(fp, Config{NX: 2, NY: 2, Turns: 1, Z: 5e-6, TileLoopArea: 25e-12, Quad: 8})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestQuadrantOf pins the 2×2 array's cell order: south-west,
// south-east, north-west, north-east.
func TestQuadrantOf(t *testing.T) {
	a := quadrantArray(t, layout.Point{X: 2, Y: 2})
	cases := []struct {
		p layout.Point
		q int
	}{
		{layout.Point{X: 0.5, Y: 0.5}, 0}, {layout.Point{X: 1.5, Y: 0.5}, 1},
		{layout.Point{X: 0.5, Y: 1.5}, 2}, {layout.Point{X: 1.5, Y: 1.5}, 3},
		{layout.Point{X: 1, Y: 1}, 3}, // boundary goes to the upper-right
	}
	for _, c := range cases {
		if got := a.CellOf(c.p); got != c.q {
			t.Errorf("CellOf(%+v) = %d, want %d", c.p, got, c.q)
		}
	}
}

// The half-lines belong to the east/north quadrants: a point exactly on
// a dividing line lands up and to the right, and the die corners map to
// their own quadrants.
func TestQuadrantOfBoundaries(t *testing.T) {
	die := layout.Point{X: 2, Y: 4}
	a := quadrantArray(t, die)
	cases := []struct {
		p layout.Point
		q int
	}{
		{layout.Point{X: 0, Y: 0}, 0},         // SW corner
		{layout.Point{X: 2, Y: 0}, 1},         // SE corner
		{layout.Point{X: 0, Y: 4}, 2},         // NW corner
		{layout.Point{X: 2, Y: 4}, 3},         // NE corner
		{layout.Point{X: 1, Y: 0.5}, 1},       // on the vertical divider, south half
		{layout.Point{X: 1, Y: 3.5}, 3},       // on the vertical divider, north half
		{layout.Point{X: 0.5, Y: 2}, 2},       // on the horizontal divider, west half
		{layout.Point{X: 1.5, Y: 2}, 3},       // on the horizontal divider, east half
		{layout.Point{X: 1, Y: 2}, 3},         // die center: both dividers
		{layout.Point{X: 0.999, Y: 1.999}, 0}, // just inside SW
	}
	for _, c := range cases {
		if got := a.CellOf(c.p); got != c.q {
			t.Errorf("CellOf(%v, %+v) = %d, want %d", die, c.p, got, c.q)
		}
	}
}

func TestWindowsPartitionCoils(t *testing.T) {
	fp := testFloorplan()
	for _, tc := range []struct {
		channels, windows int
	}{
		{0, 1}, {16, 1}, {99, 1}, {4, 4}, {5, 4}, {1, 16},
	} {
		a, err := New(fp, Config{NX: 4, NY: 4, Turns: 2, Z: 5e-6, Channels: tc.channels, TileLoopArea: 25e-12, Quad: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Windows(); got != tc.windows {
			t.Errorf("channels=%d: windows = %d, want %d", tc.channels, got, tc.windows)
		}
		// Every coil is digitized exactly once per frame.
		seen := make(map[int]int)
		for w := 0; w < a.Windows(); w++ {
			coils := a.WindowCoils(w)
			if len(coils) == 0 {
				t.Errorf("channels=%d: window %d empty", tc.channels, w)
			}
			if tc.channels > 0 && tc.channels < 16 && len(coils) > tc.channels {
				t.Errorf("channels=%d: window %d digitizes %d coils", tc.channels, w, len(coils))
			}
			for _, k := range coils {
				seen[k]++
			}
		}
		for k := 0; k < 16; k++ {
			if seen[k] != 1 {
				t.Errorf("channels=%d: coil %d digitized %d times", tc.channels, k, seen[k])
			}
		}
	}
}

// TestScanFrameWorkerIndependence pins the acceptance requirement that
// array capture runs through internal/parallel yet stays byte-identical
// for any worker count: per-cell randomness derives from (seed, stream,
// cell), never from schedule.
func TestScanFrameWorkerIndependence(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.WithTrojans = false
	cfg.WithA2 = false
	key := make([]byte, 16)
	pt := make([]byte, 16)

	capture := func(workers int) *Frame {
		restore := parallel.SetMaxWorkers(workers)
		defer restore()
		c, err := chip.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		acfg := ConfigFor(cfg, 2)
		acfg.Channels = 2 // two mux windows per frame
		a, err := New(c.Floorplan(), acfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := a.ScanEncryption(c, DefaultChannel(), pt, key, 24)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	serial := capture(1)
	wide := capture(4)
	if serial.Windows != 2 {
		t.Fatalf("frame has %d windows, want 2", serial.Windows)
	}
	for k := range serial.Traces {
		if serial.Window[k] != wide.Window[k] {
			t.Fatalf("cell %d window differs: %d vs %d", k, serial.Window[k], wide.Window[k])
		}
		ss, ws := serial.Traces[k].Samples, wide.Traces[k].Samples
		if len(ss) != len(ws) {
			t.Fatalf("cell %d trace length differs: %d vs %d", k, len(ss), len(ws))
		}
		for i := range ss {
			if ss[i] != ws[i] {
				t.Fatalf("cell %d sample %d differs between worker counts: %g vs %g", k, i, ss[i], ws[i])
			}
		}
	}
	// Coils in the same window share a chip activity window; coils in
	// different windows generally do not (state skew is modeled).
	if serial.Window[0] != 0 || serial.Window[3] != 1 {
		t.Errorf("unexpected window assignment: %v", serial.Window)
	}
}

// TestScanFrameEMFSlot pins the array's emf reuse: a captureFunc that
// hands every window of two frames one chip *Capture scans exactly like
// one that hands each window its own deep copy (no reuse possible), and
// switching to a different capture re-synthesizes every coil.
func TestScanFrameEMFSlot(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.WithTrojans = false
	cfg.WithA2 = false
	c, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 16)
	key := make([]byte, 16)
	enc, err := c.CapturePT(pt, key, 24)
	if err != nil {
		t.Fatal(err)
	}
	enc = deepCopy(enc) // the next capture reuses the recorder
	idle, err := c.CaptureIdle(24)
	if err != nil {
		t.Fatal(err)
	}
	acfg := ConfigFor(cfg, 2)
	acfg.Channels = 2 // two mux windows per frame
	a, err := New(c.Floorplan(), acfg)
	if err != nil {
		t.Fatal(err)
	}

	// scan runs two frames on a fresh chip handle, so every call draws
	// the same acquisition streams.
	scan := func(a *Array, capture captureFunc) []*Frame {
		t.Helper()
		sc, err := chip.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var frames []*Frame
		for i := 0; i < 2; i++ {
			f, err := a.scanFrame(sc, DefaultChannel(), capture)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		return frames
	}
	same := func(step string, got, want []*Frame) {
		t.Helper()
		for i := range want {
			for k, tr := range want[i].Traces {
				for j, v := range tr.Samples {
					if got[i].Traces[k].Samples[j] != v {
						t.Fatalf("%s: frame %d coil %d sample %d: %g, want %g", step, i, k, j, got[i].Traces[k].Samples[j], v)
					}
				}
			}
		}
	}
	// copies scans a fresh array with a deep copy of cap per window.
	copies := func(cap *chip.Capture) []*Frame {
		fresh, err := New(c.Floorplan(), acfg)
		if err != nil {
			t.Fatal(err)
		}
		return scan(fresh, func(int) (*chip.Capture, error) { return deepCopy(cap), nil })
	}

	same("shared capture", scan(a, func(int) (*chip.Capture, error) { return idle, nil }), copies(idle))
	if a.emfCap != idle {
		t.Fatal("emf slot does not hold the scanned capture")
	}
	old := append([][]float64(nil), a.emfs...)
	same("switched capture", scan(a, func(int) (*chip.Capture, error) { return enc, nil }), copies(enc))
	for k, emf := range a.emfs {
		if emf == nil || &emf[0] == &old[k][0] {
			t.Fatalf("coil %d was not re-synthesized for the new capture", k)
		}
	}
}

// deepCopy returns a capture whose waveforms share no memory with cap.
func deepCopy(cap *chip.Capture) *chip.Capture {
	out := &chip.Capture{
		Sensor: append([]float64(nil), cap.Sensor...),
		Probe:  append([]float64(nil), cap.Probe...),
		Dt:     cap.Dt,
		Tiles:  make([][]float64, len(cap.Tiles)),
	}
	for i, w := range cap.Tiles {
		out.Tiles[i] = append([]float64(nil), w...)
	}
	return out
}
