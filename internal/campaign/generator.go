package campaign

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"emtrust/internal/frand"
	"emtrust/internal/netlist"
	"emtrust/internal/trojan"
)

// ForcePort is the external activation input every campaign member
// declares — the "manageable activation" path the paper adds to its
// Trojans, OR'd with the member's stealthy rare-net condition through
// the shared trigger plumbing. (Not "force": that is a Verilog keyword
// and would break the exported netlists.)
const ForcePort = "hwt_force"

// Region is the netlist region tag of every campaign member's cells.
const Region = "hwt"

// Term is one input of a rare-net AND trigger: the net, the value it
// rarely takes, and the profiled probability of that rare value.
type Term struct {
	Net       netlist.Net
	RareValue uint8
	// P estimates P(net == RareValue) under random stimulus.
	P float64
}

// Member is one generated Trojan: an AND of k rare nets triggering an
// XOR payload spliced into a victim net's fanout, plus a toggling
// payload bank that makes an activated member radiate (the observable
// the EM detectors hunt). A Member implements the chip package's
// Inserter interface, so a campaign chip is built by setting it as
// chip.Config.Insert on a golden configuration.
type Member struct {
	// ID indexes the member within its campaign.
	ID int
	// K is the trigger size (number of AND terms).
	K int
	// RarityMax is the rarity bucket the trigger terms were drawn from:
	// every term satisfies P(rare) <= RarityMax.
	RarityMax float64
	// Trigger lists the k rare-net terms.
	Trigger []Term
	// TriggerProb is the estimated probability that all terms co-assert
	// on a random cycle (independence approximation — the product of
	// term rarities).
	TriggerProb float64
	// Victim is the net whose fanout the XOR payload corrupts.
	Victim netlist.Net
	// VictimTile is the floorplan tile of the victim's driver on the
	// base design (-1 when no floorplan was supplied).
	VictimTile int
	// PayloadStages sizes the rotating register bank that toggles while
	// the payload is active (a scaled-down T4): the member's dynamic EM
	// signature scales with it. Zero disables the bank, leaving only the
	// silent functional corruption.
	PayloadStages int
	// FootprintGE, when positive, pads the member's cells to exactly
	// this many gate equivalents so every member of a campaign produces
	// the same die geometry and the per-geometry EM coupling solve is
	// computed once for the whole campaign.
	FootprintGE float64
}

// InsertName names the member for netlist and build-cache tagging.
func (m *Member) InsertName() string { return fmt.Sprintf("hwt%03d", m.ID) }

// Insert builds the member into b. The base design (whose net ids the
// member references) must already be built; Insert splices the payload
// into the victim's pre-existing fanout and never rewires its own
// cells, and the registered activation flag breaks any combinational
// cycle through the trigger.
func (m *Member) Insert(b *netlist.Builder) error {
	if len(m.Trigger) == 0 {
		return fmt.Errorf("campaign: member %d has no trigger terms", m.ID)
	}
	limit := b.NumCells()
	b.PushRegion(Region)
	defer b.PopRegion()

	// Trigger condition: AND of the k terms, inverting rare-zero nets.
	terms := make([]netlist.Net, len(m.Trigger))
	for i, t := range m.Trigger {
		if t.RareValue == 1 {
			terms[i] = t.Net
		} else {
			terms[i] = b.Not(t.Net)
		}
	}
	cond := b.ReduceAnd(terms)
	tr := trojan.NewTrigger(b, ForcePort, cond)

	// XOR payload: invert the victim for every reader that existed
	// before the insertion. The trigger terms (and the XOR itself) keep
	// reading the original signal.
	payload := b.Xor(m.Victim, tr.Active)
	if b.ReplaceFanout(m.Victim, payload, limit) == 0 {
		return fmt.Errorf("campaign: member %d victim net %d has no fanout", m.ID, m.Victim)
	}

	// Payload bank: an alternating pattern loaded on the activation edge
	// rotates while active, so a triggered member draws extra dynamic
	// power proportional to PayloadStages — and a dormant one is silent.
	if m.PayloadStages > 0 {
		loadPulse := b.And(tr.Cond, b.Not(tr.Active))
		en := b.Or(loadPulse, tr.Active)
		q := make([]netlist.Net, m.PayloadStages)
		cells := make([]int, m.PayloadStages)
		for i := range q {
			q[i] = b.RegE(b.Low(), en)
			cells[i] = b.NumCells() - 1
		}
		for i := range q {
			seed := b.Const(i%2 == 0)
			d := b.Mux(q[(i+1)%len(q)], seed, loadPulse)
			b.PatchCellInput(cells[i], 0, d)
		}
	}

	// Footprint padding: top the region up to FootprintGE with inert
	// inverters (constant inputs, no switching) so the die area — and
	// with it the EM coupling geometry — is identical across members.
	if m.FootprintGE > 0 {
		feed := b.Low() // shared tie; created here only if the base lacked one
		quarters := int(math.Round(4 * (m.FootprintGE - b.GateEquivalentsSince(limit))))
		if quarters < 0 || quarters == 1 {
			return fmt.Errorf("campaign: member %d needs %.2f GE, footprint budget %.2f not reachable",
				m.ID, b.GateEquivalentsSince(limit), m.FootprintGE)
		}
		if quarters%2 == 1 { // odd quarter: one 0.75 GE buffer aligns it
			feed = b.Buf(feed)
			quarters -= 3
		}
		for ; quarters > 0; quarters -= 2 {
			feed = b.Not(feed) // 0.5 GE per inverter
		}
	}
	return nil
}

// Config shapes a campaign.
type Config struct {
	// Seed drives every random choice; one seed reproduces the whole
	// campaign byte for byte.
	Seed int64
	// Members is the campaign size.
	Members int
	// MinK..MaxK sweeps the trigger size across members (round-robin).
	MinK, MaxK int
	// Rarity lists the rarity buckets swept across members: a member of
	// bucket q draws trigger terms with P(rare) <= q.
	Rarity []float64
	// MinRarity excludes effectively constant nets (tie cells, stuck
	// counters) whose trigger could never fire under any stimulus.
	MinRarity float64
	// PayloadStages sizes every member's toggling payload bank.
	PayloadStages int
	// FootprintGE pads every member to a fixed gate-equivalent area
	// (0 disables padding; see Member.FootprintGE).
	FootprintGE float64
	// TargetRegion, when non-empty, restricts trigger and victim nets to
	// cells whose region starts with this prefix (e.g. "aes" keeps the
	// campaign out of the clock divider).
	TargetRegion string
	// ProfileWindows is the number of 64-lane random-stimulus windows
	// profiled for signal probabilities.
	ProfileWindows int
	// Lanes caps the physical wide lanes used for profiling and search
	// (1..64; results are lane-count invariant). 0 means 64.
	Lanes int
}

// DefaultConfig returns the sweep used by the experiments: 105 members
// covering k=2..8 × three rarity buckets, five members per combination.
// The buckets bracket the MERO rare-node threshold (signal probability
// 0.2); the AES core's rarest excitable nets sit near 1/14 (the round
// comparators), so per-term rarity below that is structurally
// unreachable and overall trigger rarity comes from the k-term
// conjunction.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Members:        105,
		MinK:           2,
		MaxK:           8,
		Rarity:         []float64{0.08, 0.15, 0.25},
		MinRarity:      1e-4,
		PayloadStages:  24,
		FootprintGE:    240,
		TargetRegion:   "aes",
		ProfileWindows: 6,
	}
}

func (cfg Config) lanes() int {
	if cfg.Lanes <= 0 {
		return profileLanes
	}
	return cfg.Lanes
}

func (cfg Config) validate() error {
	if cfg.Members < 1 {
		return fmt.Errorf("campaign: need at least 1 member")
	}
	if cfg.MinK < 1 || cfg.MaxK < cfg.MinK {
		return fmt.Errorf("campaign: bad trigger size range %d..%d", cfg.MinK, cfg.MaxK)
	}
	if len(cfg.Rarity) == 0 {
		return fmt.Errorf("campaign: need at least one rarity bucket")
	}
	if cfg.Lanes < 0 || cfg.Lanes > profileLanes {
		return fmt.Errorf("campaign: lanes %d out of range", cfg.Lanes)
	}
	return nil
}

// Campaign is a generated family of Trojan members plus the activity
// profile they were drawn from.
type Campaign struct {
	Cfg     Config
	Profile *Profile
	Members []*Member
}

// Generate profiles the base design and samples cfg.Members Trojan
// specs from it. tileOf, when non-nil, maps a victim net to its
// floorplan tile for the placement sweep. The member sequence is a
// deterministic function of cfg alone.
func Generate(n *netlist.Netlist, stim Stimulus, tileOf func(netlist.Net) int, cfg Config) (*Campaign, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	windows := cfg.ProfileWindows
	if windows < 1 {
		windows = 1
	}
	prof, err := ProfileActivity(n, stim, windows, cfg.lanes(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return generateFrom(n, prof, tileOf, cfg)
}

// generateFrom samples the member specs from an existing profile.
func generateFrom(n *netlist.Netlist, prof *Profile, tileOf func(netlist.Net) int, cfg Config) (*Campaign, error) {
	// Candidate nets: outputs of cells in the target region. Victims
	// additionally need at least one cell reader to splice into.
	readers := make([]int, n.NumNets())
	for _, c := range n.Cells {
		for _, in := range c.Inputs {
			readers[in]++
		}
	}
	var triggerable, victims []netlist.Net
	for _, c := range n.Cells {
		if cfg.TargetRegion != "" && !strings.HasPrefix(c.Region, cfg.TargetRegion) {
			continue
		}
		r := prof.Rarity(c.Output)
		if r >= cfg.MinRarity {
			triggerable = append(triggerable, c.Output)
		}
		if readers[c.Output] > 0 && r >= cfg.MinRarity {
			victims = append(victims, c.Output)
		}
	}
	if len(victims) == 0 {
		return nil, fmt.Errorf("campaign: no victim candidates in region %q", cfg.TargetRegion)
	}
	// Pre-bucket the trigger candidates per rarity threshold so each
	// member samples from a stable, sorted pool.
	sort.Slice(triggerable, func(i, j int) bool { return triggerable[i] < triggerable[j] })
	pools := make([][]netlist.Net, len(cfg.Rarity))
	for bi, q := range cfg.Rarity {
		for _, net := range triggerable {
			if prof.Rarity(net) <= q {
				pools[bi] = append(pools[bi], net)
			}
		}
	}

	kSpan := cfg.MaxK - cfg.MinK + 1
	camp := &Campaign{Cfg: cfg, Profile: prof, Members: make([]*Member, 0, cfg.Members)}
	for id := 0; id < cfg.Members; id++ {
		k := cfg.MinK + id%kSpan
		bucket := (id / kSpan) % len(cfg.Rarity)
		pool := pools[bucket]
		if len(pool) < k {
			return nil, fmt.Errorf("campaign: rarity bucket %.3g has %d candidates, member %d needs %d",
				cfg.Rarity[bucket], len(pool), id, k)
		}
		rng := frand.NewRand(subSeed(cfg.Seed, streamMember, uint64(id)))
		// Sample k distinct trigger nets (partial Fisher-Yates on a copy).
		picks := append([]netlist.Net(nil), pool...)
		m := &Member{
			ID: id, K: k, RarityMax: cfg.Rarity[bucket],
			PayloadStages: cfg.PayloadStages, FootprintGE: cfg.FootprintGE,
			TriggerProb: 1, VictimTile: -1,
		}
		inTrigger := make(map[netlist.Net]bool, k)
		for i := 0; i < k; i++ {
			j := i + rng.Intn(len(picks)-i)
			picks[i], picks[j] = picks[j], picks[i]
			net := picks[i]
			t := Term{Net: net, RareValue: prof.RareValue(net), P: prof.Rarity(net)}
			m.Trigger = append(m.Trigger, t)
			m.TriggerProb *= t.P
			inTrigger[net] = true
		}
		// Victim: any candidate outside the trigger set.
		for {
			v := victims[rng.Intn(len(victims))]
			if !inTrigger[v] {
				m.Victim = v
				break
			}
		}
		if tileOf != nil {
			m.VictimTile = tileOf(m.Victim)
		}
		camp.Members = append(camp.Members, m)
	}
	return camp, nil
}

// Hash digests every member's full specification; two campaigns with
// equal hashes generated the same Trojan family.
func (c *Campaign) Hash() uint64 {
	h := frand.SplitMix64(uint64(len(c.Members)))
	mix := func(v int64) { h = frand.SplitMix64(h ^ uint64(v)) }
	for _, m := range c.Members {
		mix(int64(m.ID))
		mix(int64(m.K))
		mix(int64(math.Float64bits(m.RarityMax)))
		for _, t := range m.Trigger {
			mix(int64(t.Net))
			mix(int64(t.RareValue))
			mix(int64(math.Float64bits(t.P)))
		}
		mix(int64(m.Victim))
		mix(int64(m.VictimTile))
		mix(int64(m.PayloadStages))
		mix(int64(math.Float64bits(m.FootprintGE)))
	}
	return h
}
