package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"emtrust/internal/campaign"
	"emtrust/internal/chip"
	"emtrust/internal/layout"
	"emtrust/internal/netlist"
)

// SearchStat returns the named searcher's stats, or nil.
func (r *CampaignResult) SearchStat(name string) *CampaignSearchStat {
	for i := range r.Search {
		if r.Search[i].Searcher == name {
			return &r.Search[i]
		}
	}
	return nil
}

// smallCampaignConfig shrinks the sweep for the quick tests: fewer
// members, fewer traces, smaller search budget.
func smallCampaignConfig() Config {
	cfg := DefaultConfig()
	cfg.GoldenTraces = 20
	cfg.TestTraces = 16
	cfg.CampaignMembers = 8
	cfg.CampaignSearchMembers = 3
	cfg.CampaignSearchPop = 16
	cfg.CampaignSearchGens = 3
	return cfg
}

func TestCampaignSmall(t *testing.T) {
	cfg := smallCampaignConfig()
	res, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Members != cfg.CampaignMembers {
		t.Fatalf("got %d members, want %d", res.Members, cfg.CampaignMembers)
	}
	if !res.Reproducible {
		t.Errorf("campaign regeneration did not match (hash %016x)", res.Hash)
	}
	if len(res.ROC) == 0 || len(res.ByK) == 0 || len(res.ByRarity) == 0 || len(res.ByTile) == 0 {
		t.Fatalf("missing sweep sections: roc=%d byK=%d byRarity=%d byTile=%d",
			len(res.ROC), len(res.ByK), len(res.ByRarity), len(res.ByTile))
	}
	// The ROC must be monotone: raising the margin can only trade true
	// positives away.
	for i := 1; i < len(res.ROC); i++ {
		if res.ROC[i].TPR > res.ROC[i-1].TPR+1e-12 || res.ROC[i].FPR > res.ROC[i-1].FPR+1e-12 {
			t.Errorf("ROC not monotone at margin %.2f", res.ROC[i].Margin)
		}
	}
	for _, m := range res.PerMember {
		if len(m.ActiveRel) != cfg.TestTraces || len(m.DormantRel) != cfg.TestTraces {
			t.Fatalf("member %d: %d/%d distances, want %d each", m.ID, len(m.ActiveRel), len(m.DormantRel), cfg.TestTraces)
		}
	}
	if s := res.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

// TestCampaignBuildsEachNetlistOnce pins that one Campaign call looks
// up one chip build per distinct netlist: the golden design and each
// member. The stimulus searchers run on the member pass's chips and the
// sample netlist hash reads member 0's, so neither builds again.
func TestCampaignBuildsEachNetlistOnce(t *testing.T) {
	cfg := smallCampaignConfig()
	before := chip.Stats()
	if _, err := Campaign(cfg); err != nil {
		t.Fatal(err)
	}
	after := chip.Stats()
	lookups := after.BuildHits + after.BuildMisses - before.BuildHits - before.BuildMisses
	if want := uint64(1 + cfg.CampaignMembers); lookups != want {
		t.Errorf("Campaign looked up %d chip builds, want %d (the golden design and %d members)", lookups, want, cfg.CampaignMembers)
	}
}

// regenerateCampaign builds the golden chip of cfg and generates the
// campaign from it, as Campaign does.
func regenerateCampaign(t *testing.T, cfg Config) *campaign.Campaign {
	t.Helper()
	golden, err := chip.New(campaignGoldenConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	gn, gfp := golden.Netlist(), golden.Floorplan()
	tileOf := func(v netlist.Net) int { return gfp.Grid.CellTile[gn.Driver(v)] }
	camp, err := campaign.Generate(gn, campaign.AESStimulus(), tileOf, campaignGenConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

// memberChip builds member m's chip on cfg's golden configuration.
func memberChip(t *testing.T, cfg Config, m *campaign.Member) *chip.Chip {
	t.Helper()
	chipCfg := campaignGoldenConfig(cfg)
	chipCfg.Insert = m
	c, err := chip.New(chipCfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNetlistHashesPinned pins the netlists of the chip build path as
// absolute values at DefaultConfig: the golden and infected builds, the
// default campaign's member specs, and two member netlists. Member 0
// carries a payload bank (every default member does) and pads its
// footprint with inverters only; member 1's padding takes the
// odd-quarter buffer. The other netlist witnesses regenerate through the
// same build path they check, so a drift in how builds start (the AES,
// the clock divider, the base design a build copies) fails only here.
func TestNetlistHashesPinned(t *testing.T) {
	cfg := DefaultConfig()
	for _, pin := range []struct {
		name  string
		cfg   chip.Config
		cells int
		hash  uint64
	}{
		{"golden", campaignGoldenConfig(cfg), 20919, 0xf406be237df99ab8},
		{"infected with A2", cfg.Chip, 25600, 0x1c3f42b3173b4329},
	} {
		c, err := chip.New(pin.cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := c.Netlist()
		if got := campaign.NetlistHash(n); got != pin.hash || len(n.Cells) != pin.cells {
			t.Errorf("%s netlist: hash %016x with %d cells, want %016x with %d", pin.name, got, len(n.Cells), pin.hash, pin.cells)
		}
	}

	camp := regenerateCampaign(t, cfg)
	if got := camp.Hash(); got != 0x3b3d10de48e47a0c {
		t.Errorf("campaign hash %016x, want 3b3d10de48e47a0c", got)
	}
	for _, pin := range []struct {
		id   int
		bufs int // padding buffers: 1 when the odd-quarter branch ran
		hash uint64
	}{
		{0, 0, 0x35f6c2eb345fc800},
		{1, 1, 0x92174f5b913d6984},
	} {
		m := camp.Members[pin.id]
		n := memberChip(t, cfg, m).Netlist()
		bufs := 0
		for _, c := range n.Cells {
			if c.Region == campaign.Region && c.Type == netlist.Buf {
				bufs++
			}
		}
		if m.PayloadStages == 0 || bufs != pin.bufs {
			t.Errorf("member %d: %d payload stages and %d padding buffers, want stages > 0 and %d buffers", pin.id, m.PayloadStages, bufs, pin.bufs)
		}
		if got := campaign.NetlistHash(n); got != pin.hash {
			t.Errorf("member %d netlist hash %016x, want %016x", pin.id, got, pin.hash)
		}
	}
}

// floorplanHash digests a floorplan's geometry as float bits: the die
// size, every region's rectangle in name order and every cell's
// position.
func floorplanHash(fp *layout.Floorplan) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(fs ...float64) {
		for _, f := range fs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
	}
	put(fp.Die.X, fp.Die.Y)
	names := make([]string, 0, len(fp.Regions))
	for r := range fp.Regions {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		h.Write([]byte(r))
		b := fp.Regions[r]
		put(b.X, b.Y, b.W, b.H)
	}
	for _, p := range fp.Positions {
		put(p.X, p.Y)
	}
	return h.Sum64()
}

// TestFloorplansPinned pins the placement of the golden, infected and
// member-0 builds at DefaultConfig as absolute values: the die, the
// region blocks and every cell position, bit for bit. The die side and
// the column slices come from per-region gate-equivalent sums, so a
// change in which cells a region sums, or in the order of the
// additions, fails here.
func TestFloorplansPinned(t *testing.T) {
	cfg := DefaultConfig()
	golden, err := chip.New(campaignGoldenConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	infected, err := chip.New(cfg.Chip)
	if err != nil {
		t.Fatal(err)
	}
	member := memberChip(t, cfg, regenerateCampaign(t, cfg).Members[0])
	for _, pin := range []struct {
		name    string
		c       *chip.Chip
		regions int
		hash    uint64
	}{
		{"golden", golden, 2, 0x31f104e97e9d47d8},
		{"infected with A2", infected, 6, 0xf437dcb0acb98abe},
		{"member 0", member, 3, 0x5228e1cdb3c85e93},
	} {
		fp := pin.c.Floorplan()
		if got := floorplanHash(fp); got != pin.hash || len(fp.Regions) != pin.regions {
			t.Errorf("%s floorplan: hash %016x with %d regions, want %016x with %d", pin.name, got, len(fp.Regions), pin.hash, pin.regions)
		}
	}
}

// TestCampaignAcceptance pins the issue's acceptance criteria on the
// full campaign: at least 100 generated Trojans at a fixed seed, a
// detector ROC over trigger rarity/size/placement, the GA strictly
// beating the random baseline at an equal simulation budget, and every
// artifact byte-reproducible from the campaign seed.
func TestCampaignAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign; run without -short")
	}
	res := fixture(t, campaignFixture)
	if res.Members < 100 {
		t.Fatalf("campaign has %d members, acceptance floor is 100", res.Members)
	}
	if !res.Reproducible {
		t.Errorf("campaign is not byte-reproducible from its seed")
	}
	if res.SampleNetlistHash == 0 {
		t.Errorf("missing netlist reproducibility witness")
	}
	// An independent regeneration from a fresh golden build at the same
	// config must reproduce both the member specs and the infected
	// netlist bytes. Both hashes come from campaign.Generate and one
	// netlist build, so the members' detection is not re-run.
	cfg := campaignAcceptanceConfig()
	again := regenerateCampaign(t, cfg)
	netHash := campaign.NetlistHash(memberChip(t, cfg, again.Members[0]).Netlist())
	if again.Hash() != res.Hash || netHash != res.SampleNetlistHash {
		t.Errorf("regenerated campaign differs: %016x/%016x vs %016x/%016x",
			again.Hash(), netHash, res.Hash, res.SampleNetlistHash)
	}

	// The sweep must actually cover the k and rarity axes.
	if len(res.ByK) < 7 {
		t.Errorf("trigger-size sweep has %d groups, want 7 (k=2..8)", len(res.ByK))
	}
	if len(res.ByRarity) < 3 {
		t.Errorf("rarity sweep has %d groups, want 3", len(res.ByRarity))
	}

	// An activated rare-trigger Trojan with its payload bank running
	// must be overwhelmingly visible to the fingerprint at the paper's
	// threshold, while the dormant chip stays quiet.
	var p1 *CampaignROCPoint
	for i := range res.ROC {
		if res.ROC[i].Margin == 1.0 {
			p1 = &res.ROC[i]
		}
	}
	if p1 == nil {
		t.Fatal("no margin-1.0 operating point")
	}
	if p1.TPR < 0.9 {
		t.Errorf("TPR at margin 1.0 is %.1f%%, want >= 90%%", 100*p1.TPR)
	}
	if p1.FPR > 0.1 {
		t.Errorf("FPR at margin 1.0 is %.1f%%, want <= 10%%", 100*p1.FPR)
	}

	// Search: GA strictly above the random baseline at equal budget.
	ga, rnd := res.SearchStat(campaign.GA{}.Name()), res.SearchStat(campaign.Random{}.Name())
	if ga == nil || rnd == nil {
		t.Fatal("missing searcher stats")
	}
	if ga.MeanFrac <= rnd.MeanFrac {
		t.Errorf("GA mean coverage %.3f not strictly above random %.3f at budget %d",
			ga.MeanFrac, rnd.MeanFrac, res.SearchBudget)
	}
}
