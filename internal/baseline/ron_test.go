package baseline

import (
	"math"
	"math/rand"
	"testing"

	"emtrust/internal/layout"
	"emtrust/internal/netlist"
)

// Positions returns the oscillator locations on the die.
func (r *RON) Positions() []layout.Point { return r.positions }

func testPlan(t *testing.T) *layout.Floorplan {
	t.Helper()
	b := netlist.NewBuilder("p")
	in := b.Input("in", 2)
	b.SetRegion("logic")
	for i := 0; i < 50; i++ {
		b.Xor(in[0], in[1])
	}
	b.Output("o", in)
	fp, err := layout.Place(b.Build(), layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestNewRONPlacement(t *testing.T) {
	fp := testPlan(t)
	r, err := NewRON(fp, DefaultRONConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Oscillators() != 9 {
		t.Fatalf("oscillators = %d", r.Oscillators())
	}
	for _, p := range r.Positions() {
		if p.X < 0 || p.X > fp.Die.X || p.Y < 0 || p.Y > fp.Die.Y {
			t.Fatalf("oscillator off-die at %+v", p)
		}
	}
}

func TestNewRONValidation(t *testing.T) {
	fp := testPlan(t)
	bad := DefaultRONConfig()
	bad.Rows = 0
	if _, err := NewRON(fp, bad); err == nil {
		t.Fatal("zero rows must error")
	}
	bad = DefaultRONConfig()
	bad.NeighborDecay = 1
	if _, err := NewRON(fp, bad); err == nil {
		t.Fatal("decay of 1 must error")
	}
}

func TestMeasureNominal(t *testing.T) {
	fp := testPlan(t)
	cfg := DefaultRONConfig()
	cfg.CounterNoise = 0
	r, err := NewRON(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No current anywhere: every oscillator at nominal frequency.
	tiles := make([][]float64, fp.Grid.NumTiles())
	for i := range tiles {
		tiles[i] = make([]float64, 100)
	}
	const dt = 1e-8
	counts := r.Measure(tiles, dt, nil)
	want := cfg.NominalHz * 100 * dt
	for o, c := range counts {
		if math.Abs(c-want) > 1e-9 {
			t.Fatalf("oscillator %d count %g, want %g", o, c, want)
		}
	}
	// Empty capture degenerates gracefully.
	if got := r.Measure(nil, dt, nil); len(got) != r.Oscillators() {
		t.Fatal("empty measure length")
	}
}

func TestMeasureLocalDroopSlowsNearestRO(t *testing.T) {
	fp := testPlan(t)
	cfg := DefaultRONConfig()
	cfg.CounterNoise = 0
	r, err := NewRON(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiles := make([][]float64, fp.Grid.NumTiles())
	for i := range tiles {
		tiles[i] = make([]float64, 100)
	}
	// Inject 10 mA at the tile under oscillator 0.
	home := fp.Grid.TileOf(r.Positions()[0])
	for i := range tiles[home] {
		tiles[home][i] = 10e-3
	}
	counts := r.Measure(tiles, 1e-8, nil)
	nominal := cfg.NominalHz * 100e-8
	drop0 := nominal - counts[0]
	dropFar := nominal - counts[len(counts)-1]
	if drop0 <= 0 {
		t.Fatal("loaded oscillator did not slow down")
	}
	if dropFar >= drop0 {
		t.Fatalf("far oscillator dropped as much as the near one: %g vs %g", dropFar, drop0)
	}
	// The decay is geometric in tile distance.
	if dropFar > drop0*0.2 {
		t.Fatalf("coverage too global: far drop %g vs near %g", dropFar, drop0)
	}
}

func TestDetectorFitAndEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	golden := make([][]float64, 20)
	for i := range golden {
		m := make([]float64, 9)
		for j := range m {
			m[j] = 1000 + rng.NormFloat64()
		}
		golden[i] = m
	}
	det, err := FitDetector(golden)
	if err != nil {
		t.Fatal(err)
	}
	// A golden-like vector passes.
	probe := make([]float64, 9)
	for j := range probe {
		probe[j] = 1000 + rng.NormFloat64()
	}
	if _, alarm := det.Evaluate(probe); alarm {
		t.Fatal("golden-like measurement must pass")
	}
	// A strongly shifted vector alarms.
	for j := range probe {
		probe[j] = 1000 - 50
	}
	if dist, alarm := det.Evaluate(probe); !alarm || dist <= det.Threshold {
		t.Fatalf("shifted measurement must alarm (dist %g, th %g)", dist, det.Threshold)
	}
}

func TestDetectorValidation(t *testing.T) {
	if _, err := FitDetector(nil); err == nil {
		t.Fatal("empty golden must error")
	}
	if _, err := FitDetector([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged golden must error")
	}
}
