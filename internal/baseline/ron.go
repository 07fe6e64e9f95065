// Package baseline implements the prior-art on-chip detection structure
// the paper positions itself against: a ring-oscillator network (RON,
// reference [10], Zhang & Tehranipoor DATE'11). Ring oscillators spread
// over the die slow down when nearby switching drops the local supply
// voltage; counting their edges over a window fingerprints the chip's
// power activity. The paper's critique — "these on-chip structures share
// a common problem of low coverage rates" — is reproduced quantitatively
// by internal/experiments: the RON sees the power hog next to one of its
// oscillators but misses the small CDMA leaker and the analog Trojan
// that the full-die EM sensor catches.
package baseline

import (
	"fmt"
	"math"

	"emtrust/internal/frand"
	"emtrust/internal/layout"
)

// RONConfig sets the ring-oscillator network's electrical model.
type RONConfig struct {
	// Rows and Cols place Rows*Cols oscillators on a uniform grid over
	// the die.
	Rows, Cols int
	// NominalHz is the free-running oscillator frequency (a 13-stage
	// RO in 180 nm runs at a few hundred MHz).
	NominalHz float64
	// VoltSensitivity is the fractional frequency drop per volt of
	// local supply droop.
	VoltSensitivity float64
	// GridResistance converts local current draw into supply droop
	// (ohms, lumped).
	GridResistance float64
	// NeighborDecay attenuates a tile's influence per tile of
	// Chebyshev distance from the oscillator; it encodes how local the
	// IR drop is — and therefore the network's coverage.
	NeighborDecay float64
	// CounterNoise is the RMS measurement noise in counts (quantization
	// plus oscillator jitter).
	CounterNoise float64
}

// DefaultRONConfig returns a 3x3 network of 400 MHz oscillators with a
// 6-ohm lumped local grid and 20%/V sensitivity.
func DefaultRONConfig() RONConfig {
	return RONConfig{
		Rows: 3, Cols: 3,
		NominalHz:       400e6,
		VoltSensitivity: 0.2,
		GridResistance:  8.0,
		NeighborDecay:   0.5,
		CounterNoise:    1.0,
	}
}

// RON is a placed ring-oscillator network on one floorplan.
type RON struct {
	cfg       RONConfig
	positions []layout.Point
	// weights[o][tile] is oscillator o's sensitivity to tile current.
	weights [][]float64
}

// NewRON places the network on the floorplan's tile grid.
func NewRON(fp *layout.Floorplan, cfg RONConfig) (*RON, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("baseline: need a positive RO grid, got %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.NominalHz <= 0 || cfg.NeighborDecay < 0 || cfg.NeighborDecay >= 1 {
		return nil, fmt.Errorf("baseline: invalid config %+v", cfg)
	}
	grid := fp.Grid
	r := &RON{cfg: cfg}
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j < cfg.Cols; j++ {
			p := layout.Point{
				X: (float64(j) + 0.5) / float64(cfg.Cols) * fp.Die.X,
				Y: (float64(i) + 0.5) / float64(cfg.Rows) * fp.Die.Y,
			}
			r.positions = append(r.positions, p)
			home := grid.TileOf(p)
			hx, hy := home%grid.NX, home/grid.NX
			w := make([]float64, grid.NumTiles())
			for t := range w {
				tx, ty := t%grid.NX, t/grid.NX
				d := chebyshev(hx, hy, tx, ty)
				w[t] = math.Pow(cfg.NeighborDecay, float64(d))
			}
			r.weights = append(r.weights, w)
		}
	}
	return r, nil
}

func chebyshev(ax, ay, bx, by int) int {
	dx, dy := ax-bx, ay-by
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

// Oscillators returns the number of placed oscillators.
func (r *RON) Oscillators() int { return len(r.positions) }

// Measure counts each oscillator's edges over the capture window given
// the per-tile current waveforms (amps, spaced dt seconds). The counts
// carry the configured measurement noise from rng.
func (r *RON) Measure(tiles [][]float64, dt float64, rng *frand.Rand) []float64 {
	if len(tiles) == 0 {
		return make([]float64, len(r.weights))
	}
	n := len(tiles[0])
	window := float64(n) * dt
	counts := make([]float64, len(r.weights))
	for o, w := range r.weights {
		// Average local droop over the window: the counter integrates
		// frequency, so only the mean droop matters at first order.
		var meanI float64
		for t, wt := range w {
			if wt == 0 {
				continue
			}
			sum := 0.0
			for _, v := range tiles[t] {
				sum += v
			}
			meanI += wt * sum / float64(n)
		}
		droop := meanI * r.cfg.GridResistance
		freq := r.cfg.NominalHz * (1 - r.cfg.VoltSensitivity*droop)
		count := freq * window
		if r.cfg.CounterNoise > 0 && rng != nil {
			count += rng.NormFloat64() * r.cfg.CounterNoise
		}
		counts[o] = count
	}
	return counts
}

// Detector is the RON's golden-model detector: mean golden count vector
// and a max-pairwise-distance threshold, mirroring the EM framework's
// Eq. (1) so the comparison is apples to apples.
type Detector struct {
	Mean      []float64
	Threshold float64
	golden    [][]float64
}

// FitDetector builds the golden RON model from repeated measurements.
func FitDetector(golden [][]float64) (*Detector, error) {
	if len(golden) < 2 {
		return nil, fmt.Errorf("baseline: need at least 2 golden measurements")
	}
	n := len(golden[0])
	mean := make([]float64, n)
	for _, g := range golden {
		if len(g) != n {
			return nil, fmt.Errorf("baseline: ragged golden measurements")
		}
		for i, v := range g {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(golden))
	}
	th := 0.0
	for i := 0; i < len(golden); i++ {
		for j := i + 1; j < len(golden); j++ {
			if d := euclid(golden[i], golden[j]); d > th {
				th = d
			}
		}
	}
	return &Detector{Mean: mean, Threshold: th, golden: golden}, nil
}

// Distance returns the measurement's Euclidean distance to the nearest
// golden sample.
func (d *Detector) Distance(counts []float64) float64 {
	best := math.Inf(1)
	for _, g := range d.golden {
		if dist := euclid(counts, g); dist < best {
			best = dist
		}
	}
	return best
}

// Evaluate reports whether the measurement exceeds the golden threshold.
func (d *Detector) Evaluate(counts []float64) (distance float64, alarm bool) {
	dist := d.Distance(counts)
	return dist, dist > d.Threshold
}

func euclid(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		diff := a[i] - b[i]
		sum += diff * diff
	}
	return math.Sqrt(sum)
}
