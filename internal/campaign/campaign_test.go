package campaign

import (
	"testing"

	"emtrust/internal/frand"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
)

// benchCampaignConfig is a small campaign tuned for the generated
// benchmark designs: lenient rarity (bench gate clouds have few truly
// rare nets), a short payload bank, and no footprint padding.
func benchCampaignConfig(seed int64, members int) Config {
	return Config{
		Seed:           seed,
		Members:        members,
		MinK:           2,
		MaxK:           4,
		Rarity:         []float64{0.45},
		MinRarity:      0.01,
		PayloadStages:  4,
		TargetRegion:   "bench",
		ProfileWindows: 2,
	}
}

// buildBenchCampaign builds a bench design, generates a campaign on it,
// and returns the base netlist, stimulus, and campaign.
func buildBenchCampaign(t *testing.T, bcfg BenchConfig, ccfg Config) (*netlist.Netlist, Stimulus, *Campaign) {
	t.Helper()
	b := netlist.NewBuilder("bench")
	stim, err := BuildBench(b, bcfg)
	if err != nil {
		t.Fatalf("BuildBench: %v", err)
	}
	base := b.Build()
	camp, err := Generate(base, stim, nil, ccfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return base, stim, camp
}

// infect rebuilds the bench design and inserts the member into it.
func infect(t *testing.T, bcfg BenchConfig, m *Member) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("bench_" + m.InsertName())
	if _, err := BuildBench(b, bcfg); err != nil {
		t.Fatalf("BuildBench: %v", err)
	}
	if err := m.Insert(b); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return b.Build()
}

func TestGenerateProperties(t *testing.T) {
	bcfg := DefaultBench(7)
	ccfg := benchCampaignConfig(11, 12)
	base, _, camp := buildBenchCampaign(t, bcfg, ccfg)

	if len(camp.Members) != ccfg.Members {
		t.Fatalf("got %d members, want %d", len(camp.Members), ccfg.Members)
	}
	for _, m := range camp.Members {
		if m.K < ccfg.MinK || m.K > ccfg.MaxK {
			t.Errorf("member %d: k=%d outside %d..%d", m.ID, m.K, ccfg.MinK, ccfg.MaxK)
		}
		if len(m.Trigger) != m.K {
			t.Errorf("member %d: %d terms, want %d", m.ID, len(m.Trigger), m.K)
		}
		want := 1.0
		seen := map[netlist.Net]bool{}
		for _, term := range m.Trigger {
			if seen[term.Net] {
				t.Errorf("member %d: duplicate trigger net %d", m.ID, term.Net)
			}
			seen[term.Net] = true
			if term.Net == m.Victim {
				t.Errorf("member %d: victim %d is a trigger term", m.ID, m.Victim)
			}
			if r := camp.Profile.Rarity(term.Net); r > m.RarityMax || r < ccfg.MinRarity {
				t.Errorf("member %d: term rarity %.4f outside [%.4f, %.4f]", m.ID, r, ccfg.MinRarity, m.RarityMax)
			}
			want *= term.P
		}
		if m.TriggerProb != want {
			t.Errorf("member %d: TriggerProb %.6g, want %.6g", m.ID, m.TriggerProb, want)
		}
	}

	// Every member must insert into a fresh base build and validate.
	for _, m := range camp.Members[:4] {
		inf := infect(t, bcfg, m)
		if err := inf.Check(); err != nil {
			t.Fatalf("member %d: infected netlist invalid: %v", m.ID, err)
		}
		if inf.NumNets() <= base.NumNets() {
			t.Fatalf("member %d: no nets added", m.ID)
		}
	}
}

func TestFootprintPadding(t *testing.T) {
	bcfg := DefaultBench(3)
	ccfg := benchCampaignConfig(5, 6)
	ccfg.FootprintGE = 120
	_, _, camp := buildBenchCampaign(t, bcfg, ccfg)
	for _, m := range camp.Members {
		b := netlist.NewBuilder("bench_pad")
		if _, err := BuildBench(b, bcfg); err != nil {
			t.Fatal(err)
		}
		limit := b.NumCells()
		if err := m.Insert(b); err != nil {
			t.Fatalf("member %d: %v", m.ID, err)
		}
		if ge := b.GateEquivalentsSince(limit); ge != ccfg.FootprintGE {
			t.Errorf("member %d: padded to %.2f GE, want %.2f", m.ID, ge, ccfg.FootprintGE)
		}
	}
}

// TestGenerateDeterministicAcrossLanes pins the byte-reproducibility
// claim: the same campaign seed yields identical member specs and
// infected netlists no matter how many physical wide lanes evaluate the
// profiling stimulus.
func TestGenerateDeterministicAcrossLanes(t *testing.T) {
	bcfg := DefaultBench(19)
	var hashes []uint64
	var netHashes []uint64
	for _, lanes := range []int{64, 7, 1} {
		ccfg := benchCampaignConfig(23, 6)
		ccfg.Lanes = lanes
		_, _, camp := buildBenchCampaign(t, bcfg, ccfg)
		hashes = append(hashes, camp.Hash())
		netHashes = append(netHashes, NetlistHash(infect(t, bcfg, camp.Members[0])))
	}
	for i := 1; i < len(hashes); i++ {
		if hashes[i] != hashes[0] {
			t.Errorf("campaign hash differs across lane counts: %x vs %x", hashes[i], hashes[0])
		}
		if netHashes[i] != netHashes[0] {
			t.Errorf("netlist hash differs across lane counts: %x vs %x", netHashes[i], netHashes[0])
		}
	}
}

// scalarWindow drives one stimulus window on a scalar simulator using
// the same sequencing as driveWindow and returns every net value after
// each cycle.
func scalarWindow(t *testing.T, sim *logic.Simulator, stim Stimulus, bits map[string][]uint8) [][]uint8 {
	t.Helper()
	n := sim.Netlist()
	snap := func() []uint8 {
		vals := make([]uint8, n.NumNets())
		for i := range vals {
			vals[i] = sim.Net(netlist.Net(i))
		}
		return vals
	}
	sim.Reset()
	for _, p := range stim.Ports {
		if err := sim.SetPortBits(p, bits[p]); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range stim.Pulse {
		if err := sim.SetPortUint(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	sim.Settle()
	sim.Tick()
	out := [][]uint8{snap()}
	for _, p := range stim.Pulse {
		if err := sim.SetPortUint(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	sim.Settle()
	for c := 1; c < stim.Window; c++ {
		sim.Tick()
		out = append(out, snap())
	}
	return out
}

// TestEngineDifferential simulates hundreds of generated bench+Trojan
// netlists on the reference, compiled, and wide engines under identical
// stimulus and demands bit-identical net values on every cycle.
func TestEngineDifferential(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		bcfg := BenchConfig{Seed: int64(seed), Inputs: 12, Gates: 80, FFs: 8, Window: 5}
		ccfg := benchCampaignConfig(int64(seed)+1000, 1)
		_, stim, camp := buildBenchCampaign(t, bcfg, ccfg)
		inf := infect(t, bcfg, camp.Members[0])

		ref, err := logic.New(inf, logic.WithReferenceEngine())
		if err != nil {
			t.Fatal(err)
		}
		comp, err := logic.New(inf)
		if err != nil {
			t.Fatal(err)
		}
		wsim, err := logic.New(inf)
		if err != nil {
			t.Fatal(err)
		}
		w, err := wsim.Wide()
		if err != nil {
			t.Fatal(err)
		}

		rng := frand.NewRand(subSeed(int64(seed), 0xd1f, 0))
		bits := map[string][]uint8{}
		portBits := [][][]uint8{}
		for _, p := range stim.Ports {
			port, _ := inf.InputPort(p)
			bs := make([]uint8, len(port.Nets))
			for i := range bs {
				bs[i] = uint8(rng.Int63() & 1)
			}
			bits[p] = bs
			portBits = append(portBits, [][]uint8{bs})
		}

		refVals := scalarWindow(t, ref, stim, bits)
		compVals := scalarWindow(t, comp, stim, bits)

		cycle := 0
		err = driveWindow(w, []*logic.State{wsim.State()}, stim, portBits, func(c int) {
			for ni := 0; ni < inf.NumNets(); ni++ {
				wv := w.NetLane(netlist.Net(ni), 0)
				if wv != refVals[cycle][ni] || compVals[cycle][ni] != refVals[cycle][ni] {
					t.Fatalf("seed %d cycle %d net %d: ref=%d compiled=%d wide=%d",
						seed, cycle, ni, refVals[cycle][ni], compVals[cycle][ni], wv)
				}
			}
			cycle++
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSearchDeterministicAcrossLanes pins search-trajectory determinism
// against the physical lane count of the evaluator.
func TestSearchDeterministicAcrossLanes(t *testing.T) {
	bcfg := DefaultBench(31)
	ccfg := benchCampaignConfig(37, 1)
	_, stim, camp := buildBenchCampaign(t, bcfg, ccfg)
	m := camp.Members[0]
	inf := infect(t, bcfg, m)

	var first *SearchResult
	for _, lanes := range []int{64, 5} {
		e, err := NewEvaluator(inf, stim, m, lanes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Search(e, GA{}, 32, 4, SearchSeed(ccfg.Seed, m.ID))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		for g := range first.Best {
			if res.Best[g] != first.Best[g] {
				t.Fatalf("lane count %d: generation %d best %d, want %d", lanes, g, res.Best[g], first.Best[g])
			}
		}
		if string(res.BestGenome) != string(first.BestGenome) {
			t.Fatalf("lane count %d: best genome differs", lanes)
		}
	}
}

// TestSearchersAtEqualBudget checks the budget accounting and that the
// guided searchers never lose to pure random stimulus on aggregate over
// a handful of members (the experiments pin the strict inequality on
// the full campaign).
func TestSearchersAtEqualBudget(t *testing.T) {
	bcfg := BenchConfig{Seed: 41, Inputs: 20, Gates: 200, FFs: 16, Window: 6}
	ccfg := benchCampaignConfig(43, 6)
	ccfg.MinK = 5
	ccfg.MaxK = 6
	ccfg.Rarity = []float64{0.25}
	_, stim, camp := buildBenchCampaign(t, bcfg, ccfg)

	sumGA, sumRand := 0, 0
	for _, m := range camp.Members {
		inf := infect(t, bcfg, m)
		for _, s := range []Searcher{GA{}, Random{}} {
			e, err := NewEvaluator(inf, stim, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Search(e, s, 32, 6, SearchSeed(ccfg.Seed, m.ID))
			if err != nil {
				t.Fatal(err)
			}
			if res.Evals != 32*6 {
				t.Fatalf("searcher %s spent %d evals, budget is %d", res.Searcher, res.Evals, 32*6)
			}
			if res.BestScore < 1 || res.BestScore > m.K {
				t.Fatalf("searcher %s: best score %d outside 1..%d", res.Searcher, res.BestScore, m.K)
			}
			switch s.(type) {
			case GA:
				sumGA += res.BestScore
			case Random:
				sumRand += res.BestScore
			}
		}
	}
	if sumGA < sumRand {
		t.Errorf("GA aggregate coverage %d below random baseline %d at equal budget", sumGA, sumRand)
	}
}

func TestProfileActivitySmallCircuit(t *testing.T) {
	b := netlist.NewBuilder("tiny")
	in := b.Input("in", 2)
	and := b.And(in[0], in[1])
	nor := b.Nor(in[0], in[1])
	b.Output("out", []netlist.Net{and, nor})
	n := b.Build()
	stim := Stimulus{Ports: []string{"in"}, Window: 2}

	prof, err := ProfileActivity(n, stim, 8, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Samples != 8*64*2 {
		t.Fatalf("samples=%d, want %d", prof.Samples, 8*64*2)
	}
	check := func(net netlist.Net, want, tol float64) {
		if p := prof.P[net]; p < want-tol || p > want+tol {
			t.Errorf("net %d: P=%.3f, want %.3f±%.3f", net, p, want, tol)
		}
	}
	check(in[0], 0.5, 0.1)
	check(and, 0.25, 0.1)
	check(nor, 0.25, 0.1)
	if prof.RareValue(and) != 1 {
		t.Errorf("AND output rare value should be 1")
	}
	if r := prof.Rarity(nor); r > 0.5 {
		t.Errorf("rarity %f > 0.5", r)
	}
}
