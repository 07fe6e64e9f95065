package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"emtrust/internal/campaign"
	"emtrust/internal/chip"
	"emtrust/internal/experiments"
	"emtrust/internal/fleet"
	"emtrust/internal/netlist"
	"emtrust/internal/trojan"
)

// fleetRounds is the fleet workload's round budget per die. At 1000 dies
// on two cores one budget measures about 5 s of monitoring, and every
// die's verdict stream is long enough that the infected dies reach the
// alarm list.
const fleetRounds = 40

// fleetConfig is the fleet workload: TestFleetAcceptance's 1000 dies on
// one shard per CPU, trustmon's fleet.DefaultConfig otherwise, severity
// 2, 1% prevalence, and a queue that holds every verdict of the round
// budget so nothing can be shed.
func fleetConfig(seed int64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Dies = 1000
	cfg.Shards = runtime.NumCPU()
	cfg.Seed = seed
	cfg.Severity = 2
	cfg.Prevalence = 0.01
	cfg.Rounds = fleetRounds
	cfg.QueueSize = cfg.Dies * cfg.Rounds
	return cfg
}

// runFleet enrolls the fleet (setup), then runs the closed loop: every
// shard ticks its next die as soon as the previous verdict is batched,
// until the round budget is spent and the queue drained.
func runFleet(seed int64, _ float64, tr *tracer) (*childResult, error) {
	cfg := fleetConfig(seed)
	res := &childResult{}
	root := tr.begin("harness", "fleet-run", 0)
	t0 := time.Now()
	sp := tr.begin("fleet", "fleet.New", 0)
	s, err := fleet.New(cfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("fleet.New: %w", err)
	}
	res.SetupS = time.Since(t0).Seconds()

	t1, c1 := time.Now(), cpuSeconds()
	// One span from Start to the drained Wait; the traced run's Status
	// and Alarms polls are its children.
	sp = tr.begin("fleet", "fleet.Service.Start+Wait", 0)
	if err := s.Start(context.Background()); err != nil {
		return nil, fmt.Errorf("fleet start: %w", err)
	}
	st := waitFleet(s, tr, 100*time.Millisecond)
	tr.end(sp)
	res.MeasureS, res.CPUS = time.Since(t1).Seconds(), cpuSeconds()-c1
	tr.end(root)

	// Die-rounds attempted are the ticks that produced a verdict plus
	// those whose verdict was shed or timed out; quarantined dies are
	// skipped by design and attempt nothing.
	lost := int(st.Dropped + st.Timeouts)
	res.Attempted = int(st.Verdicts) + lost
	res.Failed = lost
	checkFleet(res, s, st, seed)
	if tr != nil {
		res.fleet, res.fleetStatus = s, st
	}
	return res, nil
}

// waitFleet waits for the service to drain. A traced run also polls
// Status and Alarms every interval while the fleet runs, as a monitoring
// scraper would, and times each call.
func waitFleet(s *fleet.Service, tr *tracer, interval time.Duration) fleet.Status {
	if tr == nil {
		return s.Wait()
	}
	done := make(chan fleet.Status, 1)
	go func() { done <- s.Wait() }()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := int64(0); ; i++ {
		select {
		case st := <-done:
			return st
		case <-tick.C:
			sp := tr.begin("fleet", "fleet.Service.Status", i)
			s.Status()
			tr.end(sp)
			sp = tr.begin("fleet", "fleet.Service.Alarms", i)
			s.Alarms()
			tr.end(sp)
		}
	}
}

// checkFleet applies the fleet's output checks: at least one infected
// die flagged, the queue drained and no service goroutine left after
// Wait. At the default seed, which TestFleetAcceptance pins at zero false
// discoveries, no clean die may be on the alarm list. Benjamini-Hochberg
// bounds the expected false-discovery proportion, not each run's (at
// seed 39 one clean die ranks in), so at other seeds the list fails only
// when clean dies outnumber infected ones.
func checkFleet(res *childResult, s *fleet.Service, st fleet.Status, seed int64) {
	infected := map[int]bool{}
	for _, id := range s.InfectedDies() {
		infected[id] = true
	}
	var flagged int
	var clean []int
	for _, a := range s.Alarms() {
		if infected[a.Die] {
			flagged++
		} else {
			clean = append(clean, a.Die)
		}
	}
	if flagged == 0 {
		res.fail("none of the %d infected dies is on the alarm list", len(infected))
	}
	if (seed == 1 && len(clean) > 0) || len(clean) > flagged {
		res.fail("clean dies %v are on the alarm list with %d infected ones", clean, flagged)
	}
	if st.QueueLen != 0 {
		res.fail("queue not drained: %d verdicts left", st.QueueLen)
	}
	if g := s.Goroutines(); g != 0 {
		res.fail("%d service goroutines still live after Wait", g)
	}
}

// sweepChips are the three builds the paper's figures use; building them
// is the paper-sweep's setup, and every seed after it hits the build
// cache.
func sweepChips(cfg experiments.Config) []chip.Config {
	plain := cfg.Chip
	plain.WithTrojans, plain.WithA2 = false, false
	a2 := cfg.Chip
	a2.WithTrojans, a2.WithA2 = false, true
	infected := cfg.Chip
	infected.WithTrojans = true
	return []chip.Config{plain, a2, infected}
}

// sweepTracedSeeds is the fixed seed count of a traced paper-sweep, so
// its cache counts repeat exactly.
const sweepTracedSeeds = 3

// runSweep regenerates the paper's figures at experiments.DefaultConfig
// over consecutive chip seeds starting at seed, until the budget is
// spent (at least one seed). Each seed is one unit of work.
func runSweep(seed int64, budget float64, tr *tracer) (*childResult, error) {
	cfg := experiments.DefaultConfig()
	res := &childResult{}
	t0 := time.Now()
	for _, cc := range sweepChips(cfg) {
		sp := tr.begin("chip", "chip.New", 0)
		_, err := chip.New(cc)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("chip build: %w", err)
		}
	}
	res.SetupS = time.Since(t0).Seconds()

	t1, c1 := time.Now(), cpuSeconds()
	for s := seed; ; s++ {
		if tr != nil && s-seed >= sweepTracedSeeds {
			break
		}
		if tr == nil && s > seed && time.Since(t1).Seconds() >= budget {
			break
		}
		cfg.Chip.Seed = s
		u := time.Now()
		problems, err := sweepSeed(cfg, tr, s)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", s, err)
		}
		res.UnitMS = append(res.UnitMS, float64(time.Since(u).Nanoseconds())/1e6)
		res.Attempted++
		if len(problems) > 0 {
			res.Failed++
			for _, p := range problems {
				res.fail("seed %d: %s", s, p)
			}
		}
	}
	res.MeasureS, res.CPUS = time.Since(t1).Seconds(), cpuSeconds()-c1
	if seed == 1 {
		if err := checkPins(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sweepSeed runs the five figures at one chip seed and returns the
// output checks that failed.
func sweepSeed(cfg experiments.Config, tr *tracer, s int64) ([]string, error) {
	root := tr.begin("harness", "seed", s)
	defer tr.end(root)
	sp := tr.begin("experiments", "experiments.SNRSimulation", s)
	snr, err := experiments.SNRSimulation(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("experiments", "experiments.EuclideanSimulation", s)
	eu, err := experiments.EuclideanSimulation(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("experiments", "experiments.A2Spectrum", s)
	a2, err := experiments.A2Spectrum(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("experiments", "experiments.Fig6Histograms", s)
	hist, err := experiments.Fig6Histograms(cfg, true)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("experiments", "experiments.Fig6Spectra", s)
	spec, err := experiments.Fig6Spectra(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	var bad []string
	if !(snr.SensorSNRdB > snr.ProbeSNRdB) {
		bad = append(bad, fmt.Sprintf("sensor SNR %.2f dB is not above probe SNR %.2f dB", snr.SensorSNRdB, snr.ProbeSNRdB))
	}
	if !a2.Detected {
		bad = append(bad, "A2Spectrum did not detect the analog Trojan")
	}
	for _, r := range eu.Rows {
		if !(r.Relative > 1) {
			bad = append(bad, fmt.Sprintf("%v Euclidean relative distance %.3f is not above 1", r.Trojan, r.Relative))
		}
	}
	if len(hist.Panels) != len(trojan.Kinds()) || len(spec.Panels) != len(trojan.Kinds()) {
		bad = append(bad, fmt.Sprintf("Fig. 6 has %d histogram and %d spectrum panels, want %d each",
			len(hist.Panels), len(spec.Panels), len(trojan.Kinds())))
	}
	return bad, nil
}

// checkPins compares the default seed's spectral decisions with the
// values internal/experiments/pin_test.go pins, at that test's trace
// counts. It runs outside the measured time.
func checkPins(res *childResult) error {
	cfg := experiments.DefaultConfig()
	cfg.GoldenTraces, cfg.TestTraces = 40, 40
	a2, err := experiments.A2Spectrum(cfg)
	if err != nil {
		return fmt.Errorf("pinned A2Spectrum: %w", err)
	}
	if !a2.Detected || a2.Spots != 5 || a2.PeakIncreaseHz != 24e6 {
		res.fail("A2 pin: detected %v, %d spots, strongest at %g Hz; want true, 5, 24 MHz", a2.Detected, a2.Spots, a2.PeakIncreaseHz)
	}
	spec, err := experiments.Fig6Spectra(cfg)
	if err != nil {
		return fmt.Errorf("pinned Fig6Spectra: %w", err)
	}
	want := map[trojan.Kind]experiments.SpectrumPanel{
		trojan.T1AMLeaker:       {Detected: true, Spots: 40, StrongestHz: 19.5e6},
		trojan.T2LeakageCurrent: {Detected: true, Spots: 49, StrongestHz: 24e6},
		trojan.T3CDMALeaker:     {Detected: false, Spots: 0, StrongestHz: 0},
		trojan.T4PowerHog:       {Detected: true, Spots: 20, StrongestHz: 24e6},
	}
	for _, p := range spec.Panels {
		w := want[p.Trojan]
		if p.Detected != w.Detected || p.Spots != w.Spots || p.StrongestHz != w.StrongestHz {
			res.fail("Fig. 6 pin %v: detected %v, %d spots at %g Hz; want %v, %d at %g Hz",
				p.Trojan, p.Detected, p.Spots, p.StrongestHz, w.Detected, w.Spots, w.StrongestHz)
		}
	}
	return nil
}

// campaignGolden is the campaign's golden build configuration.
func campaignGolden(cfg experiments.Config) chip.Config {
	g := cfg.Chip
	g.WithTrojans, g.WithA2 = false, false
	return g
}

// runCampaign builds the golden chip and generates the campaign (setup),
// then measures experiments.Campaign over its default 105 members.
func runCampaign(seed int64, _ float64, tr *tracer) (*childResult, error) {
	cfg := experiments.DefaultConfig()
	cfg.Chip.Seed = seed
	res := &childResult{}
	root := tr.begin("harness", "campaign-run", seed)
	t0 := time.Now()
	sp := tr.begin("chip", "chip.New", seed)
	golden, err := chip.New(campaignGolden(cfg))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("golden build: %w", err)
	}
	gn, gfp := golden.Netlist(), golden.Floorplan()
	gen := campaign.DefaultConfig()
	gen.Seed = seed
	sp = tr.begin("campaign", "campaign.Generate", seed)
	camp, err := campaign.Generate(gn, campaign.AESStimulus(), func(v netlist.Net) int { return gfp.Grid.CellTile[gn.Driver(v)] }, gen)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("campaign.Generate: %w", err)
	}
	res.SetupS = time.Since(t0).Seconds()

	t1, c1 := time.Now(), cpuSeconds()
	sp = tr.begin("experiments", "experiments.Campaign", seed)
	out, err := experiments.Campaign(cfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("experiments.Campaign: %w", err)
	}
	res.MeasureS, res.CPUS = time.Since(t1).Seconds(), cpuSeconds()-c1
	tr.end(root)
	res.Attempted = out.Members

	if out.Members != len(camp.Members) || out.Hash != camp.Hash() {
		res.fail("campaign measured %d members with hash %x, setup generated %d with hash %x",
			out.Members, out.Hash, len(camp.Members), camp.Hash())
	}
	if !out.Reproducible {
		res.fail("campaign regeneration did not reproduce the member hash")
	}
	if seed == 1 {
		checkROC(res, out)
	}
	return res, nil
}

// checkROC applies TestCampaignAcceptance's operating point at the
// default seed: TPR >= 0.9 and FPR <= 0.1 at margin 1.0.
func checkROC(res *childResult, out *experiments.CampaignResult) {
	for _, p := range out.ROC {
		if p.Margin != 1.0 {
			continue
		}
		if p.TPR < 0.9 || p.FPR > 0.1 {
			res.fail("ROC at margin 1.0: TPR %.3f, FPR %.3f; want >= 0.9 and <= 0.1", p.TPR, p.FPR)
		}
		return
	}
	res.fail("ROC has no margin-1.0 point")
}
