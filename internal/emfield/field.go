// Package emfield computes the magnetic coupling between the chip's
// switching currents and the measurement coils, following the staged
// method of the paper's reference [18]: tile currents -> Biot-Savart
// field -> flux through coil loops (Faraday's law) -> induced emf.
//
// Each floorplan tile is modeled as a small vertical-axis current loop
// (the local supply/return path), i.e. a magnetic dipole m = I*Aeff ẑ.
// The on-chip sensor is the paper's one-way spiral on the top metal layer
// (approximated as nested rectangular turns), one per cell of a
// SpiralGrid; the external probe is a stack of same-diameter circular
// turns 100 um above the package, as seen in the X-ray of Figure 2(a).
package emfield

import (
	"fmt"
	"math"

	"emtrust/internal/layout"
	"emtrust/internal/parallel"
)

// Mu0 is the vacuum permeability in H/m.
const Mu0 = 4 * math.Pi * 1e-7

// Vec3 is a 3-D vector in meters (or field units, by context).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * k.
func (v Vec3) Scale(k float64) Vec3 { return Vec3{v.X * k, v.Y * k, v.Z * k} }

// Dot returns the dot product.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Loop is a horizontal conducting turn through which flux is computed.
type Loop interface {
	// FluxOfUnitDipole returns the magnetic flux through the loop from
	// a unit ẑ dipole at pos. It is evaluated as the boundary line
	// integral of the dipole's vector potential (Stokes' theorem),
	// which stays well-conditioned even when the loop passes a few
	// micrometers above the source — the on-chip sensor's regime. n is
	// the number of integration samples per edge (or per turn for
	// circles); n <= 0 selects a default.
	FluxOfUnitDipole(pos Vec3, n int) float64
	// Area returns the enclosed area in square meters.
	Area() float64
}

// dipoleA returns the vector potential at p of a unit ẑ dipole at pos:
// A = mu0/(4 pi) (m x r)/|r|^3.
func dipoleA(pos, p Vec3) Vec3 {
	r := p.Sub(pos)
	rn := r.Norm()
	if rn == 0 {
		return Vec3{}
	}
	k := Mu0 / (4 * math.Pi * rn * rn * rn)
	// ẑ x r = (-r.Y, r.X, 0)
	return Vec3{-r.Y * k, r.X * k, 0}
}

// boundaryFlux integrates A . dl along the closed polyline given by pts
// (counter-clockwise, last point connects back to the first), with n
// midpoint samples per edge.
func boundaryFlux(pos Vec3, pts []Vec3, n int) float64 {
	if n <= 0 {
		n = 64
	}
	sum := 0.0
	for i := range pts {
		a := pts[i]
		b := pts[(i+1)%len(pts)]
		d := b.Sub(a).Scale(1 / float64(n))
		for k := 0; k < n; k++ {
			mid := a.Add(d.Scale(float64(k) + 0.5))
			sum += dipoleA(pos, mid).Dot(d)
		}
	}
	return sum
}

// RectLoop is a rectangular turn centered at (CX, CY) at height Z.
type RectLoop struct {
	CX, CY, W, H, Z float64
}

// Area returns W*H.
func (r RectLoop) Area() float64 { return r.W * r.H }

// FluxOfUnitDipole integrates the dipole vector potential around the
// rectangle boundary (counter-clockwise) with n samples per edge.
func (r RectLoop) FluxOfUnitDipole(pos Vec3, n int) float64 {
	hx, hy := r.W/2, r.H/2
	pts := []Vec3{
		{r.CX - hx, r.CY - hy, r.Z},
		{r.CX + hx, r.CY - hy, r.Z},
		{r.CX + hx, r.CY + hy, r.Z},
		{r.CX - hx, r.CY + hy, r.Z},
	}
	return boundaryFlux(pos, pts, n)
}

// CircleLoop is a circular turn of radius R centered at (CX, CY) at
// height Z.
type CircleLoop struct {
	CX, CY, R, Z float64
}

// Area returns pi R^2.
func (c CircleLoop) Area() float64 { return math.Pi * c.R * c.R }

// FluxOfUnitDipole integrates the dipole vector potential around the
// circle (counter-clockwise) approximated as a 4n-gon.
func (c CircleLoop) FluxOfUnitDipole(pos Vec3, n int) float64 {
	if n <= 0 {
		n = 64
	}
	sides := 4 * n
	pts := make([]Vec3, sides)
	for i := range pts {
		th := 2 * math.Pi * float64(i) / float64(sides)
		pts[i] = Vec3{c.CX + c.R*math.Cos(th), c.CY + c.R*math.Sin(th), c.Z}
	}
	return boundaryFlux(pos, pts, 1)
}

// Coil is a series-connected stack of loops; the induced emf is the sum
// of the per-turn flux derivatives.
type Coil struct {
	Loops []Loop
}

// TotalArea returns the summed turn area (a coarse sensitivity measure:
// the paper notes the spiral's effectiveness "equals the accumulation of
// all the coils with gradually increasing diameters").
func (c *Coil) TotalArea() float64 {
	a := 0.0
	for _, l := range c.Loops {
		a += l.Area()
	}
	return a
}

// SpiralGrid tiles the die with nx×ny on-chip spirals on the top metal
// layer at height z above the switching devices. Each spiral is the
// paper's one-way spiral from its cell's center to the cell's corner
// (Figure 2(b)), approximated by turns nested rectangles, the outermost
// filling the cell. Cell k = cy*nx + cx, row 0 at the die bottom. The
// 1×1 grid is the paper's whole-die sensor; the 2×2 grid is the
// per-quadrant split of its future work; larger grids are the
// programmable sensor array's cells.
func SpiralGrid(die layout.Point, nx, ny, turns int, z float64) []*Coil {
	cw := die.X / float64(nx)
	ch := die.Y / float64(ny)
	coils := make([]*Coil, 0, nx*ny)
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			c := &Coil{}
			for t := 1; t <= turns; t++ {
				frac := float64(t) / float64(turns)
				c.Loops = append(c.Loops, RectLoop{
					CX: (float64(cx) + 0.5) * cw,
					CY: (float64(cy) + 0.5) * ch,
					W:  cw * frac, H: ch * frac,
					Z: z,
				})
			}
			coils = append(coils, c)
		}
	}
	return coils
}

// ExternalProbe builds the LANGER-style RF probe of Figure 2(a): a stack
// of same-diameter circular turns at height z above the die center (the
// paper sets 100 um for the package thickness), with stack pitch between
// turns.
func ExternalProbe(die layout.Point, radius float64, turns int, z, pitch float64) *Coil {
	c := &Coil{}
	for k := 0; k < turns; k++ {
		c.Loops = append(c.Loops, CircleLoop{
			CX: die.X / 2, CY: die.Y / 2,
			R: radius,
			Z: z + float64(k)*pitch,
		})
	}
	return c
}

// Coupling holds the precomputed per-tile mutual coupling of a coil:
// flux through the coil per ampere of tile loop current.
type Coupling struct {
	Coil *Coil
	// M[tile] in webers per ampere (henries).
	M []float64
}

// NewCoupling precomputes the tile->coil coupling for the given grid.
// aeff is the effective loop area of one tile's supply current path;
// quad is the per-loop quadrature resolution (points per axis).
func NewCoupling(c *Coil, grid *layout.TileGrid, aeff float64, quad int) (*Coupling, error) {
	if aeff <= 0 {
		return nil, fmt.Errorf("emfield: effective tile loop area must be positive, got %g", aeff)
	}
	cp := &Coupling{Coil: c, M: make([]float64, grid.NumTiles())}
	// Tiles are independent quadrature problems; each writes only its own
	// M entry, so the fan-out is deterministic regardless of schedule.
	err := parallel.For(grid.NumTiles(), func(t int) error {
		pos := grid.TileCenter(t)
		src := Vec3{pos.X, pos.Y, 0}
		flux := 0.0
		for _, l := range c.Loops {
			flux += l.FluxOfUnitDipole(src, quad)
		}
		// Dipole moment per ampere is aeff, so M = flux * aeff.
		cp.M[t] = flux * aeff
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// EMF synthesizes the coil's induced voltage from per-tile current
// waveforms: emf(t) = -sum_tile M[tile] * dI_tile/dt. currents is indexed
// [tile][sample]; dt is the sample spacing in seconds.
func (cp *Coupling) EMF(currents [][]float64, dt float64) []float64 {
	return cp.EMFInto(nil, currents, dt)
}

// EMFInto is EMF writing into dst, which is grown only when its capacity
// is insufficient; it returns the slice holding the result. Tiles with
// zero coupling or zero-length waveforms are skipped, and waveforms
// longer than the first tile's are clamped rather than read out of
// bounds.
func (cp *Coupling) EMFInto(dst []float64, currents [][]float64, dt float64) []float64 {
	return cp.emfInto(dst, currents, dt, nil)
}

// emfInto is the shared synthesis body: flux accumulation (four tiles
// per sweep), then one backward differentiation.
func (cp *Coupling) emfInto(dst []float64, currents [][]float64, dt float64, gains []float64) []float64 {
	if len(currents) != len(cp.M) {
		panic(fmt.Sprintf("emfield: %d tile waveforms for %d couplings", len(currents), len(cp.M)))
	}
	if len(currents) == 0 {
		return dst[:0]
	}
	n := len(currents[0])
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	// First accumulate the flux waveform, then differentiate once:
	// algebraically identical to summing per-tile derivatives but one
	// pass and numerically steadier.
	for i := range dst {
		dst[i] = 0
	}
	accumulateFlux(dst, currents, cp.M, gains)
	return FluxToEMF(dst, dt)
}

// FluxToEMF turns a coil's flux waveform (webers, dt seconds apart)
// into its induced emf, emf = -dflux/dt, in place and returns it. It is
// the differentiation step of EMFInto, shared with callers that
// accumulate the flux themselves (power's flux lanes).
func FluxToEMF(flux []float64, dt float64) []float64 {
	// Backward difference: index i needs flux[i] and flux[i-1], both
	// still intact when walking from the top down.
	n := len(flux)
	for i := n - 1; i >= 1; i-- {
		flux[i] = -(flux[i] - flux[i-1]) / dt
	}
	switch {
	case n > 1:
		flux[0] = flux[1]
	case n == 1:
		flux[0] = 0
	}
	return flux
}

// accumulateFlux adds every tile's effective coupling times its
// current waveform into dst, sweeping dst once per group of four tiles
// instead of once per tile — the flux pass is memory-bound, and the
// grouped sweep loads and stores each dst sample once per four
// contributions. Grouping never reorders arithmetic: each dst[i]
// receives its contributions in exactly the tile order of the
// one-tile-at-a-time loop, so the result is bit-identical. A waveform
// whose length differs from dst's breaks the group and is accumulated
// individually over its clamped length, preserving that order too.
func accumulateFlux(dst []float64, currents [][]float64, m, gains []float64) {
	n := len(dst)
	var ws [4][]float64
	var ms [4]float64
	pend := 0
	for t, w := range currents {
		mt := m[t]
		if t < len(gains) {
			mt *= gains[t]
		}
		if mt == 0 || len(w) == 0 {
			continue
		}
		if len(w) != n {
			flushFlux(dst, &ws, &ms, pend)
			pend = 0
			if len(w) > n {
				w = w[:n]
			}
			for i, v := range w {
				dst[i] += mt * v
			}
			continue
		}
		ws[pend], ms[pend] = w, mt
		if pend++; pend == 4 {
			flushFlux(dst, &ws, &ms, 4)
			pend = 0
		}
	}
	flushFlux(dst, &ws, &ms, pend)
}

// flushFlux adds the pending group's contributions, in tile order per
// sample. Every grouped waveform has exactly len(dst) samples.
func flushFlux(dst []float64, ws *[4][]float64, ms *[4]float64, pend int) {
	n := len(dst)
	switch pend {
	case 4:
		w0, w1, w2, w3 := ws[0][:n], ws[1][:n], ws[2][:n], ws[3][:n]
		m0, m1, m2, m3 := ms[0], ms[1], ms[2], ms[3]
		for i := range dst {
			dst[i] += m0 * w0[i]
			dst[i] += m1 * w1[i]
			dst[i] += m2 * w2[i]
			dst[i] += m3 * w3[i]
		}
	case 3:
		w0, w1, w2 := ws[0][:n], ws[1][:n], ws[2][:n]
		m0, m1, m2 := ms[0], ms[1], ms[2]
		for i := range dst {
			dst[i] += m0 * w0[i]
			dst[i] += m1 * w1[i]
			dst[i] += m2 * w2[i]
		}
	case 2:
		w0, w1 := ws[0][:n], ws[1][:n]
		m0, m1 := ms[0], ms[1]
		for i := range dst {
			dst[i] += m0 * w0[i]
			dst[i] += m1 * w1[i]
		}
	case 1:
		w0, m0 := ws[0][:n], ms[0]
		for i := range dst {
			dst[i] += m0 * w0[i]
		}
	}
}

// EMFWeightedInto is EMFInto with a per-tile current gain applied
// during flux accumulation: tile t contributes gains[t]*M[t]*I_t. It is
// the cheap way to synthesize the emf of a process-variation sibling
// die from one shared gate-level capture — per-cell charge variation
// averages out within a tile, so to first order a die differs from its
// neighbor by per-tile current scale factors, and re-weighting the
// accumulation reproduces that without re-simulating the logic. A nil
// gains slice degrades to EMFInto; a short slice treats missing tiles
// as gain 1.
func (cp *Coupling) EMFWeightedInto(dst []float64, currents [][]float64, dt float64, gains []float64) []float64 {
	if len(gains) == 0 {
		return cp.EMFInto(dst, currents, dt)
	}
	return cp.emfInto(dst, currents, dt, gains)
}
