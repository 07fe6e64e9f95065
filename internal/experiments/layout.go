package experiments

import (
	"fmt"
	"sort"
	"strings"

	"emtrust/internal/emfield"
)

// LayoutResult is the Figure 3 counterpart: the floorplan of the AES
// with the four Trojans and the on-chip sensor spiral above them.
type LayoutResult struct {
	DieWidth, DieHeight float64
	Regions             map[string]int // cells per top-level region
	SpiralTurns         int
	SpiralArea          float64
	Map                 string // ASCII floorplan
}

// LayoutReport builds the infected chip and summarizes its physical
// view.
func LayoutReport(cfg Config) (*LayoutResult, error) {
	c, err := infectedChip(cfg)
	if err != nil {
		return nil, err
	}
	fp := c.Floorplan()
	n := c.Netlist()
	res := &LayoutResult{
		DieWidth:    fp.Die.X,
		DieHeight:   fp.Die.Y,
		Regions:     make(map[string]int),
		SpiralTurns: cfg.Chip.SpiralTurns,
		Map:         fp.Render(64, 20),
	}
	for _, region := range n.Regions() {
		res.Regions[region] = n.Stats(region).Cells
	}
	res.SpiralArea = emfield.SpiralGrid(fp.Die, 1, 1, cfg.Chip.SpiralTurns, cfg.Chip.SpiralZ)[0].TotalArea()
	return res, nil
}

// String renders the layout report.
func (r *LayoutResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Layout (Figure 3 counterpart): %.3g x %.3g mm die\n",
		r.DieWidth*1e3, r.DieHeight*1e3)
	names := make([]string, 0, len(r.Regions))
	for name := range r.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "  %-10s %6d cells\n", name, r.Regions[name])
	}
	fmt.Fprintf(&sb, "on-chip sensor: %d-turn spiral, accumulated area %.3g mm^2\n",
		r.SpiralTurns, r.SpiralArea*1e6)
	sb.WriteString(r.Map)
	return sb.String()
}
