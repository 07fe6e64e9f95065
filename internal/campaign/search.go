package campaign

import (
	"fmt"

	"emtrust/internal/frand"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
)

// Eval scores one stimulus individual against one member's trigger:
// Score is the largest number of trigger terms simultaneously at their
// rare value on any cycle of the window, Full reports whether all of
// them co-asserted (the Trojan fired).
type Eval struct {
	Score int
	Full  bool
}

// Evaluator scores stimulus genomes against a member's trigger terms on
// the infected (or golden — trigger nets exist either way) netlist. One
// genome is the concatenated bits of the stimulus ports, one individual
// per wide lane.
type Evaluator struct {
	sim   *logic.Simulator
	w     *logic.WideState
	base  *logic.State
	stim  Stimulus
	terms []Term
	// widths caches the per-port bit widths; their sum is glen, the
	// genome length.
	widths []int
	glen   int
	lanes  int
}

// NewEvaluator prepares a wide-engine evaluator for the member's
// trigger on netlist n. lanes caps the physical lanes per simulation
// batch (0 means 64); results are bit-identical at any lane count
// because each individual's window is independent.
func NewEvaluator(n *netlist.Netlist, stim Stimulus, m *Member, lanes int) (*Evaluator, error) {
	if lanes == 0 {
		lanes = logic.MaxLanes
	}
	if lanes < 1 || lanes > logic.MaxLanes {
		return nil, fmt.Errorf("campaign: evaluator lanes %d out of range", lanes)
	}
	if len(m.Trigger) == 0 {
		return nil, fmt.Errorf("campaign: member %d has no trigger terms", m.ID)
	}
	sim, err := logic.New(n)
	if err != nil {
		return nil, err
	}
	w, err := sim.Wide()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		sim: sim, w: w, base: sim.State(), stim: stim,
		terms: m.Trigger, lanes: lanes,
	}
	e.widths = make([]int, len(stim.Ports))
	for pi, name := range stim.Ports {
		p, ok := n.InputPort(name)
		if !ok {
			return nil, fmt.Errorf("campaign: no input port %q on %s", name, n.Name)
		}
		e.widths[pi] = len(p.Nets)
		e.glen += len(p.Nets)
	}
	return e, nil
}

// Evaluate runs every genome through one stimulus window and scores its
// partial-trigger coverage. Individuals are packed into wide lanes in
// chunks of the configured lane count.
func (e *Evaluator) Evaluate(pop [][]uint8) ([]Eval, error) {
	evals := make([]Eval, len(pop))
	states := make([]*logic.State, 0, e.lanes)
	portBits := make([][][]uint8, len(e.stim.Ports))
	for lo := 0; lo < len(pop); lo += e.lanes {
		chunk := e.lanes
		if lo+chunk > len(pop) {
			chunk = len(pop) - lo
		}
		states = states[:0]
		for pi := range portBits {
			portBits[pi] = portBits[pi][:0]
		}
		for l := 0; l < chunk; l++ {
			g := pop[lo+l]
			if len(g) != e.glen {
				return nil, fmt.Errorf("campaign: genome length %d, want %d", len(g), e.glen)
			}
			states = append(states, e.base)
			off := 0
			for pi, width := range e.widths {
				portBits[pi] = append(portBits[pi], g[off:off+width])
				off += width
			}
		}
		err := driveWindow(e.w, states, e.stim, portBits, func(int) {
			// sat accumulates, per lane, how many terms sit at their rare
			// value this cycle.
			var sat [logic.MaxLanes]uint8
			for _, t := range e.terms {
				word := e.w.NetWord(t.Net)
				if t.RareValue == 0 {
					word = ^word
				}
				for l := 0; l < chunk; l++ {
					sat[l] += uint8(word >> l & 1)
				}
			}
			for l := 0; l < chunk; l++ {
				s := int(sat[l])
				if s > evals[lo+l].Score {
					evals[lo+l].Score = s
				}
				if s == len(e.terms) {
					evals[lo+l].Full = true
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return evals, nil
}

// Searcher produces the next stimulus population from the previous one
// and its scores. prev and evals are nil on the first generation. All
// strategies receive the same population size and per-generation
// evaluation budget, so comparisons across searchers are budget-fair by
// construction.
type Searcher interface {
	Name() string
	Next(glen, size int, prev [][]uint8, evals []Eval, rng *frand.Rand) [][]uint8
}

func randomGenome(glen int, rng *frand.Rand) []uint8 {
	g := make([]uint8, glen)
	for i := range g {
		g[i] = uint8(rng.Int63() & 1)
	}
	return g
}

func randomPop(glen, size int, rng *frand.Rand) [][]uint8 {
	pop := make([][]uint8, size)
	for i := range pop {
		pop[i] = randomGenome(glen, rng)
	}
	return pop
}

// Random is the baseline: a fresh uniform population every generation
// (pure random stimulus at the same simulation budget).
type Random struct{}

func (Random) Name() string { return "random" }

func (Random) Next(glen, size int, _ [][]uint8, _ []Eval, rng *frand.Rand) [][]uint8 {
	return randomPop(glen, size, rng)
}

// GA is the coverage-guided searcher: elitism, tournament selection on
// partial-trigger score, uniform crossover, and low-rate bit mutation.
type GA struct {
	// Elites kept verbatim per generation (default size/8, min 1).
	Elites int
	// Tournament size for parent selection (default 3).
	Tournament int
	// MutBits is the expected number of bit flips per child (default 2).
	MutBits float64
}

func (GA) Name() string { return "ga" }

func (s GA) Next(glen, size int, prev [][]uint8, evals []Eval, rng *frand.Rand) [][]uint8 {
	if prev == nil {
		return randomPop(glen, size, rng)
	}
	elites := s.Elites
	if elites <= 0 {
		elites = size / 8
	}
	if elites < 1 {
		elites = 1
	}
	if elites > len(prev) {
		elites = len(prev)
	}
	tour := s.Tournament
	if tour <= 0 {
		tour = 3
	}
	mut := s.MutBits
	if mut <= 0 {
		mut = 2
	}
	mutP := mut / float64(glen)

	// Rank indices by score, stable on index for determinism.
	order := make([]int, len(prev))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort: tiny populations
		for j := i; j > 0 && evals[order[j]].Score > evals[order[j-1]].Score; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	pick := func() []uint8 {
		best := rng.Intn(len(prev))
		for t := 1; t < tour; t++ {
			c := rng.Intn(len(prev))
			if evals[c].Score > evals[best].Score {
				best = c
			}
		}
		return prev[best]
	}

	next := make([][]uint8, 0, size)
	for _, i := range order[:elites] {
		next = append(next, append([]uint8(nil), prev[i]...))
	}
	for len(next) < size {
		a, b := pick(), pick()
		child := make([]uint8, glen)
		for i := range child {
			if rng.Int63()&1 == 0 {
				child[i] = a[i]
			} else {
				child[i] = b[i]
			}
			if rng.Float64() < mutP {
				child[i] ^= 1
			}
		}
		next = append(next, child)
	}
	return next
}

// MERO is a rare-node-sensitization style hill climber modeled on the
// N-detect heuristic: it keeps the best individuals seen and mutates a
// few bits at a time, accepting the population wholesale (selection
// happens through the elite pool).
type MERO struct {
	// Flips is the number of bits flipped per mutant (default 4).
	Flips int
}

func (MERO) Name() string { return "mero" }

func (s MERO) Next(glen, size int, prev [][]uint8, evals []Eval, rng *frand.Rand) [][]uint8 {
	if prev == nil {
		return randomPop(glen, size, rng)
	}
	flips := s.Flips
	if flips <= 0 {
		flips = 4
	}
	// Elite pool: top quarter by score.
	elites := len(prev) / 4
	if elites < 1 {
		elites = 1
	}
	order := make([]int, len(prev))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && evals[order[j]].Score > evals[order[j-1]].Score; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	next := make([][]uint8, 0, size)
	for _, i := range order[:elites] {
		next = append(next, append([]uint8(nil), prev[i]...))
	}
	for len(next) < size {
		base := prev[order[rng.Intn(elites)]]
		mutant := append([]uint8(nil), base...)
		for f := 0; f < flips; f++ {
			mutant[rng.Intn(glen)] ^= 1
		}
		next = append(next, mutant)
	}
	return next
}

// SearchResult summarizes one stimulus-search run.
type SearchResult struct {
	Searcher    string
	Population  int
	Generations int
	// Evals is the total simulated individuals (the budget actually
	// spent: Population × Generations).
	Evals int
	// Best traces the best-so-far score after each generation.
	Best []int
	// BestScore is the final best partial-trigger coverage, BestFrac the
	// same as a fraction of the trigger size.
	BestScore int
	BestFrac  float64
	// FullLanes counts evaluated individuals that fully fired the
	// trigger.
	FullLanes int
	// BestGenome is the stimulus achieving BestScore.
	BestGenome []uint8
}

// SearchSeed derives the per-member search seed from the campaign seed,
// so search trajectories are reproducible and independent across
// members.
func SearchSeed(seed int64, memberID int) int64 {
	return subSeed(seed, streamSearch, uint64(memberID))
}

// Search runs gens generations of size individuals with the given
// strategy. Equal (size, gens) means equal simulation budget across
// strategies; the searcher name is folded into the RNG stream so
// different strategies explore independently at the same seed.
func Search(e *Evaluator, s Searcher, size, gens int, seed int64) (*SearchResult, error) {
	if size < 1 || gens < 1 {
		return nil, fmt.Errorf("campaign: search needs size and gens >= 1, got %d, %d", size, gens)
	}
	var nameIx uint64
	for _, c := range []byte(s.Name()) {
		nameIx = nameIx*131 + uint64(c)
	}
	rng := frand.NewRand(subSeed(seed, streamSearch, nameIx))
	res := &SearchResult{Searcher: s.Name(), Population: size, Generations: gens}
	var pop [][]uint8
	var evals []Eval
	for g := 0; g < gens; g++ {
		pop = s.Next(e.glen, size, pop, evals, rng)
		var err error
		evals, err = e.Evaluate(pop)
		if err != nil {
			return nil, err
		}
		for i, ev := range evals {
			res.Evals++
			if ev.Full {
				res.FullLanes++
			}
			if res.BestGenome == nil || ev.Score > res.BestScore {
				res.BestScore = ev.Score
				res.BestGenome = append(res.BestGenome[:0], pop[i]...)
			}
		}
		res.Best = append(res.Best, res.BestScore)
	}
	res.BestFrac = float64(res.BestScore) / float64(len(e.terms))
	return res, nil
}
