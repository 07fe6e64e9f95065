package experiments

import (
	"testing"

	"emtrust/internal/campaign"
	"emtrust/internal/chip"
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
	goldenCfg := cfg.Chip
	goldenCfg.WithTrojans = false
	goldenCfg.WithA2 = false
	golden, err := chip.New(goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	gn, gfp := golden.Netlist(), golden.Floorplan()
	tileOf := func(v netlist.Net) int { return gfp.Grid.CellTile[gn.Driver(v)] }
	again, err := campaign.Generate(gn, campaign.AESStimulus(), tileOf, campaignGenConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	netHash, err := campaignNetlistHash(goldenCfg, again.Members[0])
	if err != nil {
		t.Fatal(err)
	}
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
