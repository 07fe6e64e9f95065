package layout

import (
	"strings"
	"testing"

	"emtrust/internal/aes"
	"emtrust/internal/netlist"
	"emtrust/internal/trojan"
)

// Contains reports whether p lies inside the rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X && p.X <= r.X+r.W && p.Y >= r.Y && p.Y <= r.Y+r.H
}

// TileArea returns the area of one tile in square meters.
func (g *TileGrid) TileArea() float64 {
	return g.Die.X * g.Die.Y / float64(g.NumTiles())
}

func buildFullDesign(t testing.TB) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("chip")
	core := aes.Generate(b)
	for _, k := range trojan.Kinds() {
		trojan.Generate(b, core, k, trojan.DefaultConfig())
	}
	return b.Build()
}

func TestPlaceBasics(t *testing.T) {
	n := buildFullDesign(t)
	fp, err := Place(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fp.Die.X <= 0 || fp.Die.Y <= 0 {
		t.Fatal("degenerate die")
	}
	// 180 nm, ~45k GE: die side should be on the order of a millimeter.
	if fp.Die.X < 0.3e-3 || fp.Die.X > 5e-3 {
		t.Fatalf("die side %g m implausible for 180 nm", fp.Die.X)
	}
	if len(fp.Positions) != len(n.Cells) {
		t.Fatal("not every cell placed")
	}
	for i, p := range fp.Positions {
		if p.X < 0 || p.X > fp.Die.X || p.Y < 0 || p.Y > fp.Die.Y {
			t.Fatalf("cell %d placed off-die at %+v", i, p)
		}
	}
}

func TestRegionsSeparated(t *testing.T) {
	n := buildFullDesign(t)
	fp, err := Place(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	aesBlock, ok := fp.RegionOf("aes")
	if !ok {
		t.Fatal("no AES block")
	}
	for _, k := range trojan.Kinds() {
		blk, ok := fp.RegionOf(k.Region())
		if !ok {
			t.Fatalf("no block for %v", k)
		}
		// Trojan blocks sit in the right-edge column (Figure 3).
		if blk.X < aesBlock.X+aesBlock.W-1e-12 {
			t.Errorf("%v block at x=%g overlaps the AES block", k, blk.X)
		}
	}
	// Cells land inside their region's block.
	for i, c := range n.Cells {
		top := c.Region
		if k := strings.IndexByte(top, '/'); k >= 0 {
			top = top[:k]
		}
		blk := fp.Regions[top]
		if !blk.Contains(fp.Positions[i]) {
			t.Fatalf("cell %d (%s) at %+v outside block %+v", i, c.Region, fp.Positions[i], blk)
		}
	}
}

func TestTileGrid(t *testing.T) {
	n := buildFullDesign(t)
	cfg := DefaultConfig()
	fp, err := Place(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := fp.Grid
	if g.NumTiles() != cfg.TilesX*cfg.TilesY {
		t.Fatalf("tiles = %d", g.NumTiles())
	}
	if len(g.CellTile) != len(n.Cells) {
		t.Fatal("tile map incomplete")
	}
	// TileOf(TileCenter(t)) == t for every tile.
	for ti := 0; ti < g.NumTiles(); ti++ {
		if got := g.TileOf(g.TileCenter(ti)); got != ti {
			t.Fatalf("tile %d center maps to %d", ti, got)
		}
	}
	// Clamping.
	if g.TileOf(Point{-1, -1}) != 0 {
		t.Fatal("negative clamp broken")
	}
	if g.TileOf(Point{g.Die.X * 2, g.Die.Y * 2}) != g.NumTiles()-1 {
		t.Fatal("positive clamp broken")
	}
	if g.TileArea() <= 0 {
		t.Fatal("tile area")
	}
	// Occupancy: the AES region must spread over many tiles.
	occupied := make(map[int]bool)
	for _, ti := range g.CellTile {
		occupied[ti] = true
	}
	if len(occupied) < g.NumTiles()/4 {
		t.Fatalf("placement only touches %d of %d tiles", len(occupied), g.NumTiles())
	}
}

func TestPlaceConfigValidation(t *testing.T) {
	n := buildFullDesign(t)
	bad := DefaultConfig()
	bad.CellArea = 0
	if _, err := Place(n, bad); err == nil {
		t.Fatal("zero cell area must error")
	}
	bad = DefaultConfig()
	bad.TilesX = 0
	if _, err := Place(n, bad); err == nil {
		t.Fatal("zero tiles must error")
	}
	bad = DefaultConfig()
	bad.Utilization = 1.5
	if _, err := Place(n, bad); err == nil {
		t.Fatal("overfull utilization must error")
	}
	empty := netlist.NewBuilder("empty").Build()
	if _, err := Place(empty, DefaultConfig()); err == nil {
		t.Fatal("empty netlist must error")
	}
}

func TestSingleRegionFillsDie(t *testing.T) {
	b := netlist.NewBuilder("solo")
	in := b.Input("in", 4)
	b.SetRegion("only")
	b.Xor(in[0], in[1])
	b.Xor(in[2], in[3])
	b.Output("o", in)
	fp, err := Place(b.Build(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blk := fp.Regions["only"]
	if blk.W != fp.Die.X || blk.H != fp.Die.Y {
		t.Fatalf("single region should fill the die, got %+v", blk)
	}
}

func TestRender(t *testing.T) {
	n := buildFullDesign(t)
	fp, err := Place(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := fp.Render(64, 96)
	if !strings.Contains(out, "a") {
		t.Fatal("render missing AES cells")
	}
	for _, digit := range []string{"1", "2", "3", "4"} {
		if !strings.Contains(out, digit) {
			t.Errorf("render missing trojan%s", digit)
		}
	}
	// Default sizing path.
	if fp.Render(0, 0) == "" {
		t.Fatal("default render empty")
	}
}

// A character cell that two regions fill equally must render the same
// initial every time: the lower one.
func TestRenderTieIsDeterministic(t *testing.T) {
	b := netlist.NewBuilder("tie")
	in := b.Input("in", 4)
	b.SetRegion("bus")
	b.Xor(in[0], in[1])
	b.Xor(in[2], in[3])
	b.SetRegion("aes")
	b.And(in[0], in[1])
	b.And(in[2], in[3])
	b.Output("o", in)
	n := b.Build()
	center := Point{X: 0.5, Y: 0.5}
	fp := &Floorplan{
		Die:       Point{X: 1, Y: 1},
		Positions: []Point{center, center, center, center},
		netlist:   n,
	}
	for i := 0; i < 100; i++ {
		if got := fp.Render(1, 1); got != "a\n" {
			t.Fatalf("render %d of a 2-2 tie between aes and bus = %q, want %q", i, got, "a\n")
		}
	}
}
