package experiments

import (
	"fmt"
	"sort"
	"strings"

	"emtrust/internal/campaign"
	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/netlist"
	"emtrust/internal/parallel"
	"emtrust/internal/sensorarray"
)

// This experiment replaces the paper's four hand-built Trojans with an
// automatically generated campaign of rare-trigger Trojans and sweeps
// the detectors across it: detection-rate/false-alarm curves versus
// trigger rarity, trigger size, and payload placement, for the paper's
// fingerprint monitor, the hardened monitor, and the self-referencing
// sensor array. A coverage-guided stimulus search (GA) is compared
// against plain-random and MERO-style baselines at an equal simulation
// budget, and the whole study is byte-reproducible from one campaign
// seed (the result carries the regeneration witness).
//
// Detection protocol per member: the deployed chip carries the member
// dormant. Enrollment fits the fingerprint and calibrates the sensor
// array on that dormant chip (the runtime-trust framing: the golden
// model is taken while the chip is still trusted); then the trigger is
// forced and the same workloads are re-measured. Detection is the rate
// at which active-phase measurements alarm, false alarm the rate on a
// second dormant set through the same models.

// Frame counts for the per-member sensor-array pass; one frame costs
// one capture window on the unconstrained 4×4 array.
const (
	campArrayN         = 4
	campArrayCalFrames = 5
	campArrayEval      = 4
)

// campaignROCMargins are the Eq. (1) threshold multipliers the ROC is
// sampled at (1.0 is the paper's exact rule).
var campaignROCMargins = []float64{0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2, 3}

// CampaignMemberResult is one generated Trojan's outcome.
type CampaignMemberResult struct {
	ID          int
	K           int
	RarityMax   float64
	TriggerProb float64
	Tile        int
	// DormantRel and ActiveRel are fingerprint distances normalized by
	// the member's Eq. (1) threshold (so 1.0 is the alarm line),
	// pooled across members for the ROC sweep.
	DormantRel, ActiveRel []float64
	// Detection and FalseAlarm are the alarm rates at margin 1.0.
	Detection, FalseAlarm float64
	// HardenedDetection is the hardened monitor's confirmed-alarm rate
	// on the active stream.
	HardenedDetection float64
	// ArrayDetection is the fraction of active array frames that
	// alarmed; ArrayZ the winning coil's mean anomaly score.
	ArrayDetection float64
	ArrayZ         float64
}

// CampaignGroup aggregates members sharing one swept property.
type CampaignGroup struct {
	Label   string
	Members int
	// Mean alarm rates across the group's members.
	Detection, FalseAlarm, Hardened, Array float64
}

// CampaignROCPoint is one operating point of the pooled ROC.
type CampaignROCPoint struct {
	Margin   float64
	TPR, FPR float64
}

// CampaignSearchStat summarizes one searcher across the search subset.
type CampaignSearchStat struct {
	Searcher string
	// MeanFrac is the mean best partial-trigger coverage (fraction of
	// trigger terms co-asserted) across members at equal budget.
	MeanFrac float64
	// FullTriggers counts members whose trigger fully fired at least
	// once during the search.
	FullTriggers int
}

// CampaignResult is the full sweep.
type CampaignResult struct {
	Members int
	// Hash digests every member spec; Reproducible reports that an
	// independent regeneration from the same seed matched it.
	Hash         uint64
	Reproducible bool
	// SampleNetlistHash digests one infected netlist build, witnessing
	// that the netlist layer (not just the specs) reproduces.
	SampleNetlistHash uint64

	ROC      []CampaignROCPoint
	ByK      []CampaignGroup
	ByRarity []CampaignGroup
	ByTile   []CampaignGroup

	// Search comparison at equal simulation budget.
	SearchMembers int
	SearchBudget  int
	Search        []CampaignSearchStat

	PerMember []CampaignMemberResult
}

// campaignGenConfig maps the experiment configuration onto the
// generator's.
func campaignGenConfig(cfg Config) campaign.Config {
	gen := campaign.DefaultConfig()
	gen.Seed = cfg.Chip.Seed
	if cfg.CampaignMembers > 0 {
		gen.Members = cfg.CampaignMembers
	}
	return gen
}

// Campaign generates the Trojan family and runs every detector over it.
func Campaign(cfg Config) (*CampaignResult, error) {
	// Golden build: the profile, the floorplan tiles, and the victim
	// pool all come from the uninfected design.
	goldenCfg := cfg.Chip
	goldenCfg.WithTrojans = false
	goldenCfg.WithA2 = false
	golden, err := chip.New(goldenCfg)
	if err != nil {
		return nil, err
	}
	gn := golden.Netlist()
	gfp := golden.Floorplan()
	tileOf := func(v netlist.Net) int { return gfp.Grid.CellTile[gn.Driver(v)] }

	gen := campaignGenConfig(cfg)
	stim := campaign.AESStimulus()
	camp, err := campaign.Generate(gn, stim, tileOf, gen)
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{Members: len(camp.Members), Hash: camp.Hash()}

	// Regeneration witness: the same seed must reproduce the same specs.
	again, err := campaign.Generate(gn, stim, tileOf, gen)
	if err != nil {
		return nil, err
	}
	res.Reproducible = again.Hash() == res.Hash

	// Measure every member. Members are independent, so they shard
	// across workers; results are index-addressed.
	res.PerMember = make([]CampaignMemberResult, len(camp.Members))
	err = parallel.For(len(camp.Members), func(i int) error {
		mr, err := campaignMember(cfg, goldenCfg, camp.Members[i])
		if err != nil {
			return fmt.Errorf("member %d: %w", camp.Members[i].ID, err)
		}
		res.PerMember[i] = mr
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.SampleNetlistHash, err = campaignNetlistHash(goldenCfg, camp.Members[0])
	if err != nil {
		return nil, err
	}

	res.ROC = campaignROC(res.PerMember)
	res.ByK = groupBy(res.PerMember, func(m CampaignMemberResult) string { return fmt.Sprintf("k=%d", m.K) })
	res.ByRarity = groupBy(res.PerMember, func(m CampaignMemberResult) string { return fmt.Sprintf("q<=%.2g", m.RarityMax) })
	res.ByTile = groupBy(res.PerMember, func(m CampaignMemberResult) string {
		return tileQuadrant(m.Tile, gfp.Grid.NX, gfp.Grid.NY)
	})

	if err := campaignSearch(cfg, goldenCfg, camp, stim, res); err != nil {
		return nil, err
	}
	return res, nil
}

// campaignMember measures one member: enrollment on the dormant chip,
// then fingerprint, hardened-monitor, and sensor-array verdicts on the
// forced-active chip.
func campaignMember(cfg Config, goldenCfg chip.Config, m *campaign.Member) (CampaignMemberResult, error) {
	out := CampaignMemberResult{
		ID: m.ID, K: m.K, RarityMax: m.RarityMax,
		TriggerProb: m.TriggerProb, Tile: m.VictimTile,
	}
	chipCfg := goldenCfg
	chipCfg.Insert = m
	c, err := chip.New(chipCfg)
	if err != nil {
		return out, err
	}
	c.EnableA2(false)
	ch := chip.SimulationChannels()

	// Enrollment (trusted phase, trigger dormant).
	enroll, err := captureSet(c, cfg, ch, cfg.GoldenTraces, cfg.CaptureCycles)
	if err != nil {
		return out, err
	}
	fp, err := core.BuildFingerprint(enroll.Sensor.Traces, cfg.Fingerprint)
	if err != nil {
		return out, err
	}
	health, err := core.BuildChannelHealth(enroll.Sensor.Traces, core.DefaultHealthConfig())
	if err != nil {
		return out, err
	}
	dormant, err := captureSet(c, cfg, ch, cfg.TestTraces, cfg.CaptureCycles)
	if err != nil {
		return out, err
	}

	arr, err := sensorarray.New(c.Floorplan(), sensorarray.ConfigFor(chipCfg, campArrayN))
	if err != nil {
		return out, err
	}
	ach := sensorarray.DefaultChannel()
	scan := func() (*sensorarray.Frame, error) {
		return arr.ScanEncryption(c, ach, cfg.Plaintext, cfg.Key, cfg.CaptureCycles)
	}
	mon, err := sensorarray.Calibrate(arr, campArrayCalFrames, scan)
	if err != nil {
		return out, err
	}

	// Force the trigger; the registered active flag latches on the next
	// edge, and every capture from here on radiates the payload.
	if err := c.SetPort(campaign.ForcePort, true); err != nil {
		return out, err
	}
	active, err := captureSet(c, cfg, ch, cfg.TestTraces, cfg.CaptureCycles)
	if err != nil {
		return out, err
	}

	rel := func(set *dualSet) []float64 {
		ds := make([]float64, len(set.Sensor.Traces))
		for i, t := range set.Sensor.Traces {
			ds[i] = fp.Distance(t) / fp.Threshold
		}
		return ds
	}
	out.DormantRel = rel(dormant)
	out.ActiveRel = rel(active)
	out.Detection = rateAbove(out.ActiveRel, 1)
	out.FalseAlarm = rateAbove(out.DormantRel, 1)

	hardened, err := runStream(fp, nil, core.HardenedOptions(health), active.Sensor.Traces)
	if err != nil {
		return out, err
	}
	out.HardenedDetection = confirmedRate(hardened)

	if _, err := scan(); err != nil { // warm-up with the payload running
		return out, err
	}
	alarms := 0
	for i := 0; i < campArrayEval; i++ {
		f, err := scan()
		if err != nil {
			return out, err
		}
		v, err := mon.Evaluate(f)
		if err != nil {
			return out, err
		}
		if v.Alarm {
			alarms++
		}
		hot := 0
		for k := range v.Z {
			if v.Z[k] > v.Z[hot] {
				hot = k
			}
		}
		out.ArrayZ += v.Z[hot] / campArrayEval
	}
	out.ArrayDetection = float64(alarms) / campArrayEval
	return out, nil
}

// campaignNetlistHash builds one member's infected netlist and digests
// it (the structural half of the reproducibility witness).
func campaignNetlistHash(goldenCfg chip.Config, m *campaign.Member) (uint64, error) {
	chipCfg := goldenCfg
	chipCfg.Insert = m
	c, err := chip.New(chipCfg)
	if err != nil {
		return 0, err
	}
	return campaign.NetlistHash(c.Netlist()), nil
}

// campaignSearch compares the stimulus searchers on an even subset of
// members at an identical simulation budget.
func campaignSearch(cfg Config, goldenCfg chip.Config, camp *campaign.Campaign, stim campaign.Stimulus, res *CampaignResult) error {
	n := cfg.CampaignSearchMembers
	if n <= 0 {
		n = 1
	}
	if n > len(camp.Members) {
		n = len(camp.Members)
	}
	step := len(camp.Members) / n
	if step < 1 {
		step = 1
	}
	var subset []*campaign.Member
	for i := 0; i < len(camp.Members) && len(subset) < n; i += step {
		subset = append(subset, camp.Members[i])
	}
	pop, gens := cfg.CampaignSearchPop, cfg.CampaignSearchGens
	res.SearchMembers = len(subset)
	res.SearchBudget = pop * gens

	searchers := []campaign.Searcher{campaign.GA{}, campaign.Random{}, campaign.MERO{}}
	// results[s][m] is searcher s on subset member m.
	results := make([][]*campaign.SearchResult, len(searchers))
	for si := range results {
		results[si] = make([]*campaign.SearchResult, len(subset))
	}
	err := parallel.For(len(searchers)*len(subset), func(i int) error {
		si, mi := i/len(subset), i%len(subset)
		m := subset[mi]
		chipCfg := goldenCfg
		chipCfg.Insert = m
		c, err := chip.New(chipCfg) // build-cached: shares the measurement pass's netlist
		if err != nil {
			return err
		}
		e, err := campaign.NewEvaluator(c.Netlist(), stim, m, 0)
		if err != nil {
			return err
		}
		sr, err := campaign.Search(e, searchers[si], pop, gens, campaign.SearchSeed(camp.Cfg.Seed, m.ID))
		if err != nil {
			return err
		}
		results[si][mi] = sr
		return nil
	})
	if err != nil {
		return err
	}
	for si, s := range searchers {
		st := CampaignSearchStat{Searcher: s.Name()}
		for _, sr := range results[si] {
			st.MeanFrac += sr.BestFrac / float64(len(subset))
			if sr.FullLanes > 0 {
				st.FullTriggers++
			}
		}
		res.Search = append(res.Search, st)
	}
	return nil
}

// campaignROC pools the threshold-normalized distances of every member
// and sweeps the alarm margin.
func campaignROC(members []CampaignMemberResult) []CampaignROCPoint {
	var pos, neg []float64
	for _, m := range members {
		pos = append(pos, m.ActiveRel...)
		neg = append(neg, m.DormantRel...)
	}
	roc := make([]CampaignROCPoint, 0, len(campaignROCMargins))
	for _, margin := range campaignROCMargins {
		roc = append(roc, CampaignROCPoint{
			Margin: margin,
			TPR:    rateAbove(pos, margin),
			FPR:    rateAbove(neg, margin),
		})
	}
	return roc
}

func rateAbove(vs []float64, threshold float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	n := 0
	for _, v := range vs {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(vs))
}

// groupBy averages member outcomes under a label function, ordered by
// label.
func groupBy(members []CampaignMemberResult, label func(CampaignMemberResult) string) []CampaignGroup {
	idx := map[string]int{}
	var groups []CampaignGroup
	for _, m := range members {
		l := label(m)
		gi, ok := idx[l]
		if !ok {
			gi = len(groups)
			idx[l] = gi
			groups = append(groups, CampaignGroup{Label: l})
		}
		g := &groups[gi]
		g.Members++
		g.Detection += m.Detection
		g.FalseAlarm += m.FalseAlarm
		g.Hardened += m.HardenedDetection
		g.Array += m.ArrayDetection
	}
	for i := range groups {
		n := float64(groups[i].Members)
		groups[i].Detection /= n
		groups[i].FalseAlarm /= n
		groups[i].Hardened /= n
		groups[i].Array /= n
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Label < groups[j].Label })
	return groups
}

// tileQuadrant names the die quadrant a tile falls into.
func tileQuadrant(tile, nx, ny int) string {
	if tile < 0 {
		return "unplaced"
	}
	tx, ty := tile%nx, tile/nx
	ns, ew := "S", "W"
	if ty >= (ny+1)/2 {
		ns = "N"
	}
	if tx >= (nx+1)/2 {
		ew = "E"
	}
	return ns + ew
}

// String renders the sweep.
func (r *CampaignResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Generated Trojan campaign: %d members (extension)\n", r.Members)
	fmt.Fprintf(&sb, "campaign hash %016x, regeneration match: %v; sample netlist hash %016x\n",
		r.Hash, r.Reproducible, r.SampleNetlistHash)

	fmt.Fprintf(&sb, "\npooled ROC over the Eq. (1) threshold margin\n")
	fmt.Fprintf(&sb, "%-8s %8s %8s\n", "margin", "TPR", "FPR")
	for _, p := range r.ROC {
		fmt.Fprintf(&sb, "%-8.2f %7.1f%% %7.1f%%\n", p.Margin, 100*p.TPR, 100*p.FPR)
	}

	section := func(title string, groups []CampaignGroup) {
		fmt.Fprintf(&sb, "\ndetection by %s (margin 1.0)\n", title)
		fmt.Fprintf(&sb, "%-13s %7s %9s %8s %9s %7s\n", title, "members", "detect", "false+", "hardened", "array")
		for _, g := range groups {
			fmt.Fprintf(&sb, "%-13s %7d %8.0f%% %7.0f%% %8.0f%% %6.0f%%\n",
				g.Label, g.Members, 100*g.Detection, 100*g.FalseAlarm, 100*g.Hardened, 100*g.Array)
		}
	}
	section("trigger size", r.ByK)
	section("rarity", r.ByRarity)
	section("tile quadrant", r.ByTile)

	fmt.Fprintf(&sb, "\nstimulus search, %d members, budget %d evaluations each\n", r.SearchMembers, r.SearchBudget)
	fmt.Fprintf(&sb, "%-8s %14s %14s\n", "searcher", "mean coverage", "full triggers")
	for _, s := range r.Search {
		fmt.Fprintf(&sb, "%-8s %13.1f%% %11d/%d\n", s.Searcher, 100*s.MeanFrac, s.FullTriggers, r.SearchMembers)
	}
	return sb.String()
}
