// Package layout synthesizes a physical view of a netlist: a die outline,
// a region-clustered row placement (the counterpart of the paper's
// Figure 3 floorplan, with the AES on the left and the four Trojans in a
// column on the right), and a tile grid that aggregates cell positions for
// the EM current-distribution model.
package layout

import (
	"fmt"
	"math"
	"strings"

	"emtrust/internal/netlist"
)

// Point is a position on the die in meters, origin at the lower-left die
// corner.
type Point struct {
	X, Y float64
}

// Config controls floorplanning.
type Config struct {
	// CellArea is the silicon area of one NAND2 gate equivalent in
	// square meters. The default models a 180 nm standard-cell library.
	CellArea float64
	// Utilization is the placement density (fraction of core area
	// occupied by cells).
	Utilization float64
	// TrojanColumn puts regions other than the first in a column along
	// the right die edge, like Figure 3. Width is this fraction of the
	// die.
	TrojanColumn float64
	// TilesX, TilesY set the aggregation grid resolution.
	TilesX, TilesY int
}

// DefaultConfig returns the 180 nm-flavored defaults used by the paper
// reproduction.
func DefaultConfig() Config {
	return Config{
		CellArea:     12e-12, // 12 um^2 per gate equivalent (180 nm)
		Utilization:  0.7,
		TrojanColumn: 0.18,
		TilesX:       16,
		TilesY:       16,
	}
}

// Floorplan is the placed design.
type Floorplan struct {
	Die       Point   // die dimensions (width, height) in meters
	Positions []Point // cell center per netlist cell index
	Regions   map[string]Rect
	Grid      *TileGrid
	netlist   *netlist.Netlist
}

// Rect is an axis-aligned placement block.
type Rect struct {
	X, Y, W, H float64
}

// TileGrid aggregates cells into NX x NY tiles over the die.
type TileGrid struct {
	NX, NY int
	Die    Point
	// CellTile maps every netlist cell index to its tile index
	// (ty*NX + tx).
	CellTile []int
}

// NumTiles returns NX*NY.
func (g *TileGrid) NumTiles() int { return g.NX * g.NY }

// TileCenter returns the center position of tile index t.
func (g *TileGrid) TileCenter(t int) Point {
	tx, ty := t%g.NX, t/g.NX
	return Point{
		X: (float64(tx) + 0.5) * g.Die.X / float64(g.NX),
		Y: (float64(ty) + 0.5) * g.Die.Y / float64(g.NY),
	}
}

// TileOf returns the tile index containing point p (clamped to the die).
func (g *TileGrid) TileOf(p Point) int {
	tx := int(p.X / g.Die.X * float64(g.NX))
	ty := int(p.Y / g.Die.Y * float64(g.NY))
	if tx < 0 {
		tx = 0
	}
	if tx >= g.NX {
		tx = g.NX - 1
	}
	if ty < 0 {
		ty = 0
	}
	if ty >= g.NY {
		ty = g.NY - 1
	}
	return ty*g.NX + tx
}

// Place floorplans the netlist: the largest region (by area) fills the
// main block; every other top-level region gets a slice of a column along
// the right edge, stacked bottom to top in name order, mirroring
// Figure 3.
func Place(n *netlist.Netlist, cfg Config) (*Floorplan, error) {
	if cfg.CellArea <= 0 || cfg.Utilization <= 0 || cfg.Utilization > 1 {
		return nil, fmt.Errorf("layout: invalid config %+v", cfg)
	}
	if cfg.TilesX <= 0 || cfg.TilesY <= 0 {
		return nil, fmt.Errorf("layout: invalid tile grid %dx%d", cfg.TilesX, cfg.TilesY)
	}
	if len(n.Cells) == 0 {
		return nil, fmt.Errorf("layout: netlist %s has no cells", n.Name)
	}

	// Partition cells by top-level region and sum the gate equivalents
	// of the whole design and of each region in one pass. A region's sum
	// is Netlist.Stats(region).GateEquivalent to the bit: every cell
	// whose tag starts with the region's name, added in ascending cell
	// order.
	regions := n.Regions()
	regionGE := make([]float64, len(regions))
	totalGE := 0.0
	cellsByRegion := make(map[string][]int)
	for i, c := range n.Cells {
		top := c.Region
		if k := strings.IndexByte(top, '/'); k >= 0 {
			top = top[:k]
		}
		cellsByRegion[top] = append(cellsByRegion[top], i)
		ge := c.Type.GateEquivalents()
		totalGE += ge
		for k, r := range regions {
			if strings.HasPrefix(c.Region, r) {
				regionGE[k] += ge
			}
		}
	}

	// Total core area sets the (square) die.
	coreArea := totalGE * cfg.CellArea / cfg.Utilization
	side := math.Sqrt(coreArea)
	die := Point{X: side, Y: side}

	// Main region = largest area.
	main := 0
	mainGE := 0.0
	for k, ge := range regionGE {
		if ge > mainGE {
			mainGE = ge
			main = k
		}
	}

	blocks := make(map[string]Rect, len(regions))
	if len(regions) == 1 {
		blocks[regions[main]] = Rect{0, 0, die.X, die.Y}
	} else {
		colW := die.X * cfg.TrojanColumn
		blocks[regions[main]] = Rect{0, 0, die.X - colW, die.Y}
		// Column slices proportional to region area, in name order
		// (Regions is sorted) bottom to top.
		otherGE := 0.0
		for k, ge := range regionGE {
			if k != main {
				otherGE += ge
			}
		}
		y := 0.0
		for k, r := range regions {
			if k == main {
				continue
			}
			h := die.Y * regionGE[k] / otherGE
			blocks[r] = Rect{die.X - colW, y, colW, h}
			y += h
		}
	}

	fp := &Floorplan{
		Die:       die,
		Positions: make([]Point, len(n.Cells)),
		Regions:   blocks,
		netlist:   n,
	}
	// Row placement inside each block: scan cells left to right, bottom
	// to top, advancing by each cell's own width on a fixed row height.
	rowHeight := math.Sqrt(cfg.CellArea) // square unit cell
	rowPitch := rowHeight / cfg.Utilization
	for region, cells := range cellsByRegion {
		blk := blocks[region]
		x, y := blk.X, blk.Y
		for _, ci := range cells {
			w := n.Cells[ci].Type.GateEquivalents() * cfg.CellArea / rowHeight / cfg.Utilization
			if x+w > blk.X+blk.W {
				x = blk.X
				y += rowPitch
				if y+rowHeight > blk.Y+blk.H {
					y = blk.Y // overflow wraps; density bookkeeping is approximate
				}
			}
			// Clamp centers into the block for cells wider than the
			// block or blocks shorter than one row.
			px := math.Min(x+w/2, blk.X+blk.W)
			py := math.Min(y+rowHeight/2, blk.Y+blk.H)
			fp.Positions[ci] = Point{X: px, Y: py}
			x += w
		}
	}

	grid := &TileGrid{NX: cfg.TilesX, NY: cfg.TilesY, Die: die, CellTile: make([]int, len(n.Cells))}
	for i, p := range fp.Positions {
		grid.CellTile[i] = grid.TileOf(p)
	}
	fp.Grid = grid
	return fp, nil
}

// Netlist returns the placed design.
func (f *Floorplan) Netlist() *netlist.Netlist { return f.netlist }

// RegionOf returns the placement block of a top-level region.
func (f *Floorplan) RegionOf(name string) (Rect, bool) {
	r, ok := f.Regions[name]
	return r, ok
}

// Render returns a coarse ASCII map of the floorplan (the Figure 3
// counterpart): each character cell shows the dominant region initial at
// that spot, the lower initial on a tie, with '.' for empty silicon.
func (f *Floorplan) Render(cols, rows int) string {
	if cols <= 0 {
		cols = 48
	}
	if rows <= 0 {
		rows = 16
	}
	grid := make([][256]int, cols*rows)
	for i, p := range f.Positions {
		cx := int(p.X / f.Die.X * float64(cols))
		cy := int(p.Y / f.Die.Y * float64(rows))
		if cx < 0 || cx >= cols || cy < 0 || cy >= rows {
			continue
		}
		region := f.netlist.Cells[i].Region
		initial := byte('?')
		if region != "" {
			initial = region[0]
			// Distinguish trojan1..trojan4 by digit.
			if strings.HasPrefix(region, "trojan") && len(region) > 6 {
				initial = region[6]
			}
		}
		grid[cy*cols+cx][initial]++
	}
	var sb strings.Builder
	for cy := rows - 1; cy >= 0; cy-- {
		for cx := 0; cx < cols; cx++ {
			best, bestN := byte('.'), 0
			for ch, n := range &grid[cy*cols+cx] {
				if n > bestN { // ascending scan: the lower initial keeps a tie
					best, bestN = byte(ch), n
				}
			}
			sb.WriteByte(best)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
