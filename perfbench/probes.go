package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"emtrust/internal/aes"
	"emtrust/internal/campaign"
	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/degrade"
	"emtrust/internal/dsp"
	"emtrust/internal/experiments"
	"emtrust/internal/fleet"
	"emtrust/internal/frand"
	"emtrust/internal/layout"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
	"emtrust/internal/power"
	"emtrust/internal/sensorarray"
	"emtrust/internal/trace"
)

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. Counts repeat exactly between two runs at one seed.
var layerMetrics = []struct{ name, unit string }{
	{"frand.seed_ns", "ns"},
	{"frand.draw_ns", "ns"},
	{"frand.draws_per_round", "count"},
	{"frand.share_of_round_pct", "%"},
	{"degrade.acquire_us", "us"},
	{"degrade.stages_us", "us"},
	{"trace.acquire_us", "us"},
	{"core.health_us", "us"},
	{"core.features_us", "us"},
	{"core.eval_us", "us"},
	{"core.rank_us", "us"},
	{"core.fingerprint_build_ms", "ms"},
	{"core.fingerprint_eval_us", "us"},
	{"core.spectral_build_ms", "ms"},
	{"core.spectral_eval_us", "us"},
	{"fleet.tick_us", "us"},
	{"fleet.tick_unattributed_us", "us"},
	{"fleet.service_overhead_us", "us"},
	{"fleet.alarms_us", "us"},
	{"fleet.status_us", "us"},
	{"fleet.enroll_ms_per_die", "ms"},
	{"fleet.rejected", "count"},
	{"fleet.quarantined", "count"},
	{"logic.cycle_us", "us"},
	{"logic.wide_cycle_us", "us"},
	{"logic.toggles_per_cycle", "count"},
	{"logic.compile_ms", "ms"},
	{"power.begin_us", "us"},
	{"power.cycle_us", "us"},
	{"emfield.emf_us", "us"},
	{"emfield.emf_512_us", "us"},
	{"emfield.emf_weighted_us", "us"},
	{"chip.capture_pt_us", "us"},
	{"chip.capture_unattributed_us", "us"},
	{"chip.capture_idle_us", "us"},
	{"chip.capture_batch_lane_us", "us"},
	{"chip.splitrand_us", "us"},
	{"chip.build_ms", "ms"},
	{"chip.capture_hits", "count"},
	{"chip.capture_misses", "count"},
	{"chip.build_hits", "count"},
	{"chip.build_misses", "count"},
	{"aes.generate_ms", "ms"},
	{"layout.place_ms", "ms"},
	{"dsp.spectrum_us", "us"},
	{"dsp.new_spectrum_us", "us"},
	{"campaign.generate_ms", "ms"},
	{"campaign.search_ms", "ms"},
	{"sensorarray.frame_us", "us"},
	{"experiments.snr_ms", "ms"},
	{"experiments.euclid_ms", "ms"},
	{"experiments.a2_ms", "ms"},
	{"experiments.fig6_hist_ms", "ms"},
	{"experiments.fig6_spectra_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_fraction", "fraction"},
	{"harness.tracing_overhead_pct", "%"},
}

// Probe sizes: enough calls that every median is steady, few enough
// that the whole probe suite stays within a few seconds.
const (
	dieRounds      = 400 // timed die rounds
	tickSamples    = 300 // Service.TickOnce calls
	captureWindows = 100 // 32-cycle capture windows
	windowCycles   = 32  // experiments.DefaultConfig().CaptureCycles
	spectralCycles = 512 // experiments.DefaultConfig().SpectralCycles
	tickAverages   = 8   // the fleet's default TickAverages
)

// prober drives each layer's hot path from public calls at the
// workload's shapes and records the per-layer metrics.
type prober struct {
	workload string
	seed     int64
	tr       *tracer
	res      *childResult
	L        map[string]float64
	// layerUS is the die round's median frand+degrade+core self time,
	// for attributing fleet.tick_us.
	layerUS float64
	// windowUS is the capture window's median duration and emfUS its
	// EMF synthesis, for attributing chip.capture_pt_us.
	windowUS, emfUS float64
}

// probeLayers runs every layer probe after the traced workload and
// fills res.Layers and res.Report.
func probeLayers(name string, seed int64, tr *tracer, res *childResult) error {
	if res.Layers == nil {
		res.Layers = map[string]float64{}
	}
	p := &prober{workload: name, seed: seed, tr: tr, res: res, L: res.Layers}
	p.workloadLedger()
	for _, step := range []func() error{p.dieRound, p.fleetService, p.captureWindow, p.chipCalls, p.detectors, p.wideEngine, p.campaignCalls, p.figures} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// perCallNS times n calls of fn and returns the median in ns.
func perCallNS(n int, fn func(i int) error) (float64, error) {
	samples := make([]float64, n)
	for i := range samples {
		t := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(samples), nil
}

// durations returns the wall duration, in ns, of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// spanMedianUS is the median self time, in us, of the spans named name.
func (p *prober) spanMedianUS(name string) float64 {
	return median(spanSelfNS(p.tr.spans, selfTimes(p.tr.spans), name)) / 1e3
}

// workloadLedger reports the ledger of the workload's own traced calls.
func (p *prober) workloadLedger() {
	root := map[string]string{"fleet": "fleet-run", "paper-sweep": "seed", "campaign": "campaign-run"}[p.workload]
	p.res.Report = append(p.res.Report, buildLedger(p.tr.spans, root).lines()...)
}

// dieProbe is one fleet die rebuilt from public calls the way
// Population.spawn builds it: a gain-weighted EMF waveform, the
// severity-scaled degrade profile wrapped around the simulation
// channel, and a fingerprint, health gate and evaluator enrolled on the
// die's own channel.
type dieProbe struct {
	ch        *degrade.Channel
	rng       *frand.Rand
	wave      []float64
	dt        float64
	acc, draw *trace.Trace
	lo, hi    []float64
	health    *core.ChannelHealth
	fp        *core.Fingerprint
	eval      *core.Evaluator
	feats     []float64
	seed      uint64
}

// acquire is Die.acquire from public calls: TickAverages reseeded draws
// through the degraded channel at timeline index idx, combined by a
// trimmed mean. Seeding uses the die's generator; draws go through rng
// (the generator itself, or a counting wrapper around it).
func (d *dieProbe) acquire(tr *tracer, idx int, index uint64, unit int64, rng trace.Rand) *trace.Trace {
	m := uint64(tickAverages)
	var t *trace.Trace
	for k := uint64(0); k < m; k++ {
		sp := tr.begin("frand", "frand.Rand.Seed", unit)
		d.rng.Seed(int64(splitmix(d.seed ^ splitmix(index*m+k))))
		tr.end(sp)
		dst := d.acc
		if k > 0 {
			dst = d.draw
		}
		sp = tr.begin("degrade", "degrade.Channel.AcquireAtInto", unit)
		r := d.ch.AcquireAtInto(idx, dst, d.wave, 1, d.dt, rng)
		tr.end(sp)
		if k == 0 {
			t = r
			if len(d.lo) != len(r.Samples) {
				d.lo = make([]float64, len(r.Samples))
				d.hi = make([]float64, len(r.Samples))
			}
			copy(d.lo, r.Samples)
			copy(d.hi, r.Samples)
			continue
		}
		for j, v := range r.Samples {
			t.Samples[j] += v
			d.lo[j] = math.Min(d.lo[j], v)
			d.hi[j] = math.Max(d.hi[j], v)
		}
	}
	inv := 1 / float64(m-2)
	for j := range t.Samples {
		t.Samples[j] = (t.Samples[j] - d.lo[j] - d.hi[j]) * inv
	}
	return t
}

// round is one monitored die round: acquisition, health gate, features
// and evaluation, each call in its own span under a die-round root.
func (d *dieProbe) round(tr *tracer, r int, rng trace.Rand) {
	unit := int64(r)
	root := tr.begin("harness", "die-round", unit)
	t := d.acquire(tr, 1000+r, uint64(1000+r), unit, rng)
	sp := tr.begin("core", "core.ChannelHealth.Check", unit)
	hv := d.health.Check(t)
	tr.end(sp)
	var feats []float64
	if !hv.Rejected {
		sp = tr.begin("core", "core.FeatureExtractor.ExtractInto", unit)
		d.feats = d.fp.Extractor.ExtractInto(d.feats, t)
		tr.end(sp)
		feats = d.feats
	}
	sp = tr.begin("core", "core.Evaluator.EvalChecked", unit)
	d.eval.EvalChecked(t, hv, feats)
	tr.end(sp)
	tr.end(root)
}

// splitmix is the SplitMix64 finalizer, deriving per-draw seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dieRound builds one die at the fleet workload's shapes and times its
// rounds layer by layer.
func (p *prober) dieRound() error {
	fc := fleetConfig(p.seed)
	c, err := chip.New(fc.Chip)
	if err != nil {
		return err
	}
	if err := c.DeactivateAll(); err != nil {
		return err
	}
	c.EnableA2(false)
	var capt *chip.Capture
	for i := 0; i < 2; i++ { // warm-up, then the dormant capture
		if capt, err = c.CapturePT(fc.Plaintext, fc.Key, windowCycles); err != nil {
			return err
		}
	}
	tiles := make([][]float64, len(capt.Tiles))
	for i, w := range capt.Tiles {
		tiles[i] = append([]float64(nil), w...)
	}
	cp := c.SensorCoupling()
	grng := rand.New(rand.NewSource(p.seed))
	gains := make([]float64, len(cp.M))
	for i := range gains {
		gains[i] = 1 + 0.05*grng.NormFloat64()
	}
	var wave []float64
	ns, _ := perCallNS(200, func(int) error {
		wave = cp.EMFWeightedInto(wave, tiles, capt.Dt, gains)
		return nil
	})
	p.L["emfield.emf_weighted_us"] = ns / 1e3

	inner, ok := chip.SimulationChannels().Sensor.(trace.Acquisition)
	if !ok {
		return fmt.Errorf("simulation sensor channel is not a trace.Acquisition")
	}
	d := &dieProbe{
		rng: frand.NewRand(0), wave: wave, dt: capt.Dt, seed: uint64(p.seed),
		acc:  &trace.Trace{Samples: make([]float64, 0, len(wave))},
		draw: &trace.Trace{Samples: make([]float64, 0, len(wave))},
	}
	d.ch = degrade.Wrap(inner, degrade.Profile{
		Severity: fc.Severity, RefRMS: dsp.RMS(wave), RefPeak: dsp.PeakAbs(wave), Span: 400,
	}.Stages()...)
	golden := make([]*trace.Trace, 12)
	for i := range golden {
		golden[i] = d.acquire(nil, i, uint64(i), 0, d.rng).Clone()
	}
	if d.fp, err = core.BuildFingerprint(golden, core.DefaultFingerprintConfig()); err != nil {
		return err
	}
	if d.health, err = core.BuildChannelHealth(golden, core.DefaultHealthConfig()); err != nil {
		return err
	}
	opts := core.HardenedOptions(d.health)
	opts.Rebaseline = core.RebaselineConfig{}
	d.fp.Threshold = math.Inf(1)
	if d.eval, err = core.NewEvaluator(d.fp, nil, opts); err != nil {
		return err
	}

	// The exact draw count comes from one untimed round through the
	// counting wrapper; the timed rounds draw from the generator directly.
	cr := &countingRand{r: d.rng}
	d.round(nil, 0, cr)
	p.L["frand.draws_per_round"] = float64(cr.draws)
	for r := 1; r <= dieRounds; r++ {
		d.round(p.tr, r, d.rng)
	}

	ns, _ = perCallNS(20, func(int) error {
		for k := 0; k < 10000; k++ {
			d.rng.NormFloat64()
		}
		return nil
	})
	drawNS := ns / 10000
	p.L["frand.draw_ns"] = drawNS
	p.L["frand.seed_ns"] = p.spanMedianUS("frand.Rand.Seed") * 1e3
	p.L["degrade.acquire_us"] = p.spanMedianUS("degrade.Channel.AcquireAtInto")
	p.L["core.health_us"] = p.spanMedianUS("core.ChannelHealth.Check")
	p.L["core.features_us"] = p.spanMedianUS("core.FeatureExtractor.ExtractInto")
	p.L["core.eval_us"] = p.spanMedianUS("core.Evaluator.EvalChecked")

	dst := &trace.Trace{}
	ns, _ = perCallNS(400, func(int) error {
		dst = inner.AcquireScaledInto(dst, wave, 1, capt.Dt, d.rng)
		return nil
	})
	p.L["degrade.stages_us"] = p.L["degrade.acquire_us"] - ns/1e3
	p.L["trace.acquire_us"] = ns / 1e3

	l := buildLedger(p.tr.spans, "die-round")
	u := float64(l.Units)
	attributed := make([]float64, len(l.UnitAttributed))
	for i, ns := range l.UnitAttributed {
		attributed[i] = float64(ns) / 1e3
	}
	p.layerUS = median(attributed) // frand+degrade+core per round
	// frand's share of a round: its reseeds plus every draw the
	// acquisition chain makes, at the measured per-draw cost.
	frandUS := float64(l.layer("frand").SelfNS)/u/1e3 + p.L["frand.draws_per_round"]*drawNS/1e3
	p.L["frand.share_of_round_pct"] = 100 * frandUS / (float64(l.TotalNS) / u / 1e3)
	p.res.Report = append(p.res.Report, l.lines()...)
	p.res.Report = append(p.res.Report,
		timingLine("die-round", "us", scale(durations(p.tr.spans, "die-round"), 1e-3)),
		fmt.Sprintf("frand share of a die round: %.1f%% (%.0f draws at %.1f ns plus %.0f reseeds, %.1f us of %.1f us)",
			p.L["frand.share_of_round_pct"], p.L["frand.draws_per_round"], drawNS,
			float64(l.layer("frand").Calls)/u, frandUS, float64(l.TotalNS)/u/1e3))
	return nil
}

// scale multiplies every sample by f into a new slice.
func scale(samples []float64, f float64) []float64 {
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = v * f
	}
	return out
}

// fleetService measures the service layer: the fleet workload's own
// service, or a 64-die probe fleet on the other workloads.
func (p *prober) fleetService() error {
	s, st := p.res.fleet, p.res.fleetStatus
	dies := 0
	var enrollS, runS float64
	if s == nil {
		cfg := fleetConfig(p.seed)
		cfg.Dies, cfg.Rounds = 64, 16
		cfg.QueueSize = cfg.Dies * cfg.Rounds
		t0 := time.Now()
		var err error
		if s, err = fleet.New(cfg); err != nil {
			return err
		}
		enrollS = time.Since(t0).Seconds()
		t1 := time.Now()
		if err := s.Start(context.Background()); err != nil {
			return err
		}
		st = waitFleet(s, p.tr, time.Millisecond)
		runS = time.Since(t1).Seconds()
		dies = cfg.Dies
	} else {
		dies = s.Config().Dies
		enrollS, runS = p.res.SetupS, p.res.MeasureS
	}
	cfg := s.Config()
	p.L["fleet.enroll_ms_per_die"] = 1e3 * enrollS / float64(dies)
	p.L["fleet.rejected"] = float64(st.Rejected)
	p.L["fleet.quarantined"] = float64(st.Quarantined)
	// Calls made while the service ran; a run too short for the poller
	// falls back to calls on the drained service.
	if len(durations(p.tr.spans, "fleet.Service.Status")) == 0 {
		for i := int64(0); i < 10; i++ {
			sp := p.tr.begin("fleet", "fleet.Service.Status", i)
			s.Status()
			p.tr.end(sp)
			sp = p.tr.begin("fleet", "fleet.Service.Alarms", i)
			s.Alarms()
			p.tr.end(sp)
		}
	}
	p.L["fleet.status_us"] = median(durations(p.tr.spans, "fleet.Service.Status")) / 1e3
	p.L["fleet.alarms_us"] = median(durations(p.tr.spans, "fleet.Service.Alarms")) / 1e3

	for i := 0; i < tickSamples; i++ {
		sp := p.tr.begin("fleet", "fleet.Service.TickOnce", int64(i))
		s.TickOnce((i*7919)%dies, cfg.Rounds+i)
		p.tr.end(sp)
	}
	ticks := scale(durations(p.tr.spans, "fleet.Service.TickOnce"), 1e-3)
	tick := median(ticks)
	p.L["fleet.tick_us"] = tick
	p.L["fleet.tick_unattributed_us"] = tick - p.layerUS
	verdicts := float64(st.Verdicts)
	overhead := 0.0
	if verdicts > 0 && runS > 0 {
		overhead = float64(cfg.Shards)/(verdicts/runS)*1e6 - tick
	}
	p.L["fleet.service_overhead_us"] = overhead
	p.res.Report = append(p.res.Report,
		timingLine("fleet.tick_us (Service.TickOnce)", "us", ticks),
		fmt.Sprintf("fleet.tick_us %.1f us = frand+degrade+core %.1f us (die-round probe) + unattributed %.1f us (%.1f%%)",
			tick, p.layerUS, tick-p.layerUS, 100*(tick-p.layerUS)/tick),
		fmt.Sprintf("fleet.service_overhead_us %.1f us per verdict per shard (%d shards, %.0f verdicts in %.3f s)",
			overhead, cfg.Shards, verdicts, runS))
	return nil
}

// captureWindow rebuilds one chip capture window from public calls on
// the chip's own netlist: logic ticks, power accounting and EMF
// synthesis, each in its own span.
func (p *prober) captureWindow() error {
	cfg := experiments.DefaultConfig()
	cc := cfg.Chip
	cc.Seed = p.seed
	c, err := chip.New(cc)
	if err != nil {
		return err
	}
	if err := c.DeactivateAll(); err != nil {
		return err
	}
	c.EnableA2(false)
	var sim *logic.Simulator
	ns, err := perCallNS(3, func(int) error {
		var err error
		sim, err = logic.New(c.Netlist())
		return err
	})
	if err != nil {
		return err
	}
	p.L["logic.compile_ms"] = ns / 1e6
	rec, err := power.NewRecorder(cc.Power, c.Floorplan())
	if err != nil {
		return err
	}
	sim.BatchToggles(true)
	rng := rand.New(rand.NewSource(p.seed))
	pt := make([]byte, 16)
	keyBits := aes.BytesToBits(cfg.Key)
	cp := c.SensorCoupling()
	var emf []float64
	toggles, cycles := 0, 0
	tr := p.tr
	for w := int64(0); w < captureWindows; w++ {
		root := tr.begin("harness", "capture-window", w)
		sp := tr.begin("power", "power.Recorder.Begin", w)
		rec.Begin(windowCycles)
		tr.end(sp)
		for i := 0; i < windowCycles; i++ {
			switch i {
			case 1:
				rng.Read(pt)
				sp = tr.begin("logic", "logic.Simulator.Settle", w)
				err = firstErr(sim.SetPortBits(aes.PortPT, aes.BytesToBits(pt)), sim.SetPortBits(aes.PortKey, keyBits), sim.SetPortUint(aes.PortStart, 1))
				sim.Settle()
				tr.end(sp)
			case 2:
				sp = tr.begin("logic", "logic.Simulator.Settle", w)
				err = sim.SetPortUint(aes.PortStart, 0)
				sim.Settle()
				tr.end(sp)
			}
			if err != nil {
				return err
			}
			sp = tr.begin("logic", "logic.Simulator.Tick", w)
			sim.Tick()
			tr.end(sp)
			sp = tr.begin("power", "power.Recorder.DrainToggles+EndCycle", w)
			ev := sim.TakeToggles()
			rec.DrainToggles(ev)
			err = rec.EndCycle()
			tr.end(sp)
			if err != nil {
				return err
			}
			toggles += len(ev)
			cycles++
		}
		sp = tr.begin("emfield", "emfield.Coupling.EMFInto", w)
		emf = cp.EMFInto(emf, rec.Currents(), rec.Dt())
		tr.end(sp)
		tr.end(root)
	}
	p.L["logic.toggles_per_cycle"] = float64(toggles) / float64(cycles)
	p.L["logic.cycle_us"] = p.spanMedianUS("logic.Simulator.Tick")
	p.L["power.begin_us"] = p.spanMedianUS("power.Recorder.Begin")
	p.L["power.cycle_us"] = p.spanMedianUS("power.Recorder.DrainToggles+EndCycle")
	p.emfUS = p.spanMedianUS("emfield.Coupling.EMFInto")
	p.L["emfield.emf_us"] = p.emfUS
	p.windowUS = median(durations(tr.spans, "capture-window")) / 1e3
	p.res.Report = append(p.res.Report, buildLedger(tr.spans, "capture-window").lines()...)

	// The opaque whole: CapturePT with a fresh plaintext per call, so
	// neither the fixed-point memo nor the capture cache can replay it.
	ns, err = perCallNS(captureWindows, func(int) error {
		rng.Read(pt)
		_, err := c.CapturePT(pt, cfg.Key, windowCycles)
		return err
	})
	if err != nil {
		return err
	}
	capUS := ns / 1e3
	p.L["chip.capture_pt_us"] = capUS
	// CapturePT synthesizes the probe coil's EMF as well as the sensor's;
	// the probe coupling is private, so the sensor's EMF stands in for it.
	p.L["chip.capture_unattributed_us"] = capUS - p.windowUS - p.emfUS
	p.res.Report = append(p.res.Report, fmt.Sprintf(
		"chip.capture_pt_us %.1f us = capture window %.1f us + second EMF %.1f us + unattributed %.1f us",
		capUS, p.windowUS, p.emfUS, p.L["chip.capture_unattributed_us"]))
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probeInsert is an empty chip.Inserter with a unique name: each one is
// a build-cache miss with the golden geometry, the shape of a campaign
// member build.
type probeInsert struct{ name string }

func (p *probeInsert) InsertName() string              { return p.name }
func (p *probeInsert) Insert(b *netlist.Builder) error { return nil }

// chipCalls times the chip layer's other public calls: idle and batch
// captures, SplitRand, a cold build and its aes/layout parts, and the
// dsp spectra of a spectral-window capture.
func (p *prober) chipCalls() error {
	cfg := experiments.DefaultConfig()
	a2cfg := cfg.Chip
	a2cfg.WithTrojans, a2cfg.Seed = false, p.seed
	c, err := chip.New(a2cfg)
	if err != nil {
		return err
	}
	c.EnableA2(true) // the charging orbit never repeats a state, so no memo replays
	var idle *chip.Capture
	ns, err := perCallNS(10, func(int) error {
		var err error
		idle, err = c.CaptureIdle(spectralCycles)
		return err
	})
	if err != nil {
		return err
	}
	p.L["chip.capture_idle_us"] = ns / 1e3
	tiles := make([][]float64, len(idle.Tiles))
	for i, w := range idle.Tiles {
		tiles[i] = append([]float64(nil), w...)
	}
	x := append([]float64(nil), idle.Sensor...)
	var emf []float64
	ns, _ = perCallNS(20, func(int) error {
		emf = c.SensorCoupling().EMFInto(emf, tiles, idle.Dt)
		return nil
	})
	p.L["emfield.emf_512_us"] = ns / 1e3
	plan := dsp.PlanForLength(len(x))
	var amp []float64
	ns, _ = perCallNS(50, func(int) error {
		amp = plan.SpectrumInto(amp, x, dsp.Hann)
		return nil
	})
	p.L["dsp.spectrum_us"] = ns / 1e3
	ns, _ = perCallNS(20, func(int) error {
		dsp.NewSpectrum(x, idle.Dt, dsp.Hann)
		return nil
	})
	p.L["dsp.new_spectrum_us"] = ns / 1e3

	// Batch captures on the experiments' dormant infected chip with a
	// fresh plaintext per lane, so every lane is simulated.
	bcfg := cfg.Chip
	bcfg.Seed = p.seed
	bc, err := chip.New(bcfg)
	if err != nil {
		return err
	}
	if err := bc.DeactivateAll(); err != nil {
		return err
	}
	bc.EnableA2(false)
	rng := rand.New(rand.NewSource(p.seed))
	pts := make([][]byte, logic.MaxLanes)
	for i := range pts {
		pts[i] = make([]byte, 16)
	}
	ns, err = perCallNS(3, func(int) error {
		for _, pt := range pts {
			rng.Read(pt)
		}
		_, err := bc.CaptureBatch(pts, cfg.Key, windowCycles)
		return err
	})
	if err != nil {
		return err
	}
	p.L["chip.capture_batch_lane_us"] = ns / 1e3 / float64(len(pts))
	ns, _ = perCallNS(1000, func(i int) error {
		c.SplitRand(1, uint64(i))
		return nil
	})
	p.L["chip.splitrand_us"] = ns / 1e3

	golden := campaignGolden(cfg)
	ns, err = perCallNS(3, func(i int) error {
		cc := golden
		cc.Insert = &probeInsert{name: fmt.Sprintf("perfbench%d", i)}
		_, err := chip.New(cc)
		return err
	})
	if err != nil {
		return err
	}
	p.L["chip.build_ms"] = ns / 1e6
	var n *netlist.Netlist
	ns, _ = perCallNS(3, func(int) error {
		b := netlist.NewBuilder("perfbench_aes")
		aes.Generate(b)
		n = b.Build()
		return nil
	})
	p.L["aes.generate_ms"] = ns / 1e6
	ns, err = perCallNS(3, func(int) error {
		_, err := layout.Place(n, golden.Layout)
		return err
	})
	if err != nil {
		return err
	}
	p.L["layout.place_ms"] = ns / 1e6
	return nil
}

// detectors times the core detectors at the paper-sweep's shapes (60
// golden 32-cycle traces, spectral golden sets of 512-cycle captures),
// the population ranking at 1000 scores, and the acquisition call of the
// workload (chip.Channels.Acquire on paper-sweep).
func (p *prober) detectors() error {
	cfg := experiments.DefaultConfig()
	cc := cfg.Chip
	cc.WithTrojans, cc.WithA2, cc.Seed = false, false, p.seed
	c, err := chip.New(cc)
	if err != nil {
		return err
	}
	capt, err := c.CapturePT(cfg.Plaintext, cfg.Key, windowCycles)
	if err != nil {
		return err
	}
	ch := chip.SimulationChannels()
	rng := rand.New(rand.NewSource(p.seed))
	golden := make([]*trace.Trace, cfg.GoldenTraces)
	for i := range golden {
		golden[i], _ = ch.Acquire(capt, rng)
	}
	if p.workload == "paper-sweep" {
		ns, _ := perCallNS(200, func(int) error {
			ch.Acquire(capt, rng)
			return nil
		})
		p.L["trace.acquire_us"] = ns / 1e3
	}
	var fp *core.Fingerprint
	ns, err := perCallNS(5, func(int) error {
		var err error
		fp, err = core.BuildFingerprint(golden, cfg.Fingerprint)
		return err
	})
	if err != nil {
		return err
	}
	p.L["core.fingerprint_build_ms"] = ns / 1e6
	ns, _ = perCallNS(200, func(i int) error {
		fp.Evaluate(golden[i%len(golden)])
		return nil
	})
	p.L["core.fingerprint_eval_us"] = ns / 1e3

	idle, err := c.CaptureIdle(spectralCycles)
	if err != nil {
		return err
	}
	spec := make([]*trace.Trace, cfg.GoldenTraces/8+4)
	for i := range spec {
		spec[i], _ = ch.Acquire(idle, rng)
	}
	var sd *core.SpectralDetector
	ns, err = perCallNS(5, func(int) error {
		var err error
		sd, err = core.BuildSpectralDetector(spec, cfg.Spectral)
		return err
	})
	if err != nil {
		return err
	}
	p.L["core.spectral_build_ms"] = ns / 1e6
	ns, _ = perCallNS(50, func(i int) error {
		sd.Evaluate(spec[i%len(spec)])
		return nil
	})
	p.L["core.spectral_eval_us"] = ns / 1e3

	pop := core.NewPopulationReference(core.DefaultPopulationConfig())
	scores := make([]float64, 1000)
	eligible := make([]bool, len(scores))
	for i := range scores {
		scores[i] = rng.NormFloat64()
		eligible[i] = true
	}
	ns, _ = perCallNS(200, func(int) error {
		pop.Rank(scores, eligible)
		return nil
	})
	p.L["core.rank_us"] = ns / 1e3
	return nil
}

// wideEngine times one 64-lane cycle of the bit-parallel engine under
// the capture-window stimulus, as campaign.Search drives it.
func (p *prober) wideEngine() error {
	cfg := experiments.DefaultConfig()
	c, err := chip.New(campaignGolden(cfg))
	if err != nil {
		return err
	}
	sim, err := logic.New(c.Netlist())
	if err != nil {
		return err
	}
	w, err := sim.Wide()
	if err != nil {
		return err
	}
	sts := make([]*logic.State, logic.MaxLanes)
	for l := range sts {
		sts[l] = sim.State()
	}
	if err := w.LoadStates(sts); err != nil {
		return err
	}
	w.OnWideToggle = func(int32, uint64, uint64) {}
	rng := rand.New(rand.NewSource(p.seed))
	lanes := make([][]uint8, logic.MaxLanes)
	for l := range lanes {
		lanes[l] = make([]uint8, 128)
	}
	keyBits := aes.BytesToBits(cfg.Key)
	var samples []float64
	for win := 0; win < 8; win++ {
		for i := 0; i < windowCycles; i++ {
			switch i {
			case 1:
				for l := range lanes {
					for j := range lanes[l] {
						lanes[l][j] = uint8(rng.Intn(2))
					}
				}
				if err := firstErr(w.SetPortLanesBits(aes.PortPT, lanes), w.SetPortBitsAll(aes.PortKey, keyBits), w.SetPortUintAll(aes.PortStart, 1)); err != nil {
					return err
				}
				w.Settle()
			case 2:
				if err := w.SetPortUintAll(aes.PortStart, 0); err != nil {
					return err
				}
				w.Settle()
			}
			t := time.Now()
			w.Tick()
			samples = append(samples, float64(time.Since(t).Nanoseconds()))
		}
	}
	p.L["logic.wide_cycle_us"] = median(samples) / 1e3
	return nil
}

// campaignCalls times campaign generation (the campaign workload's own
// setup call where there is one), one GA 32×6 search, and one
// sensor-array frame on a campaign member's chip.
func (p *prober) campaignCalls() error {
	cfg := experiments.DefaultConfig()
	golden := campaignGolden(cfg)
	g, err := chip.New(golden)
	if err != nil {
		return err
	}
	gen := campaign.DefaultConfig()
	gen.Seed = p.seed
	stim := campaign.AESStimulus()
	var camp *campaign.Campaign
	ns, err := perCallNS(1, func(int) error {
		var err error
		camp, err = campaign.Generate(g.Netlist(), stim, nil, gen)
		return err
	})
	if err != nil {
		return err
	}
	p.L["campaign.generate_ms"] = ns / 1e6
	if d := durations(p.tr.spans, "campaign.Generate"); len(d) > 0 {
		p.L["campaign.generate_ms"] = d[0] / 1e6 // the workload's own call, with the tile map
	}
	m := camp.Members[3%len(camp.Members)]
	cc := golden
	cc.Insert = m
	c, err := chip.New(cc)
	if err != nil {
		return err
	}
	e, err := campaign.NewEvaluator(c.Netlist(), stim, m, 0)
	if err != nil {
		return err
	}
	ns, err = perCallNS(3, func(int) error {
		_, err := campaign.Search(e, campaign.GA{}, 32, 6, campaign.SearchSeed(gen.Seed, m.ID))
		return err
	})
	if err != nil {
		return err
	}
	p.L["campaign.search_ms"] = ns / 1e6
	arr, err := sensorarray.New(c.Floorplan(), sensorarray.ConfigFor(cc, 4))
	if err != nil {
		return err
	}
	ach := sensorarray.DefaultChannel()
	ns, err = perCallNS(20, func(int) error {
		_, err := arr.ScanEncryption(c, ach, cfg.Plaintext, cfg.Key, windowCycles)
		return err
	})
	if err != nil {
		return err
	}
	p.L["sensorarray.frame_us"] = ns / 1e3
	return nil
}

// figures reports each paper figure's time per seed: the medians over
// the paper-sweep's own seeds, or one run of each at the workload seed.
func (p *prober) figures() error {
	names := []struct{ metric, span string }{
		{"experiments.snr_ms", "experiments.SNRSimulation"},
		{"experiments.euclid_ms", "experiments.EuclideanSimulation"},
		{"experiments.a2_ms", "experiments.A2Spectrum"},
		{"experiments.fig6_hist_ms", "experiments.Fig6Histograms"},
		{"experiments.fig6_spectra_ms", "experiments.Fig6Spectra"},
	}
	if p.workload == "paper-sweep" {
		for _, n := range names {
			p.L[n.metric] = median(durations(p.tr.spans, n.span)) / 1e6
		}
		return nil
	}
	cfg := experiments.DefaultConfig()
	cfg.Chip.Seed = p.seed
	calls := []func() error{
		func() error { _, err := experiments.SNRSimulation(cfg); return err },
		func() error { _, err := experiments.EuclideanSimulation(cfg); return err },
		func() error { _, err := experiments.A2Spectrum(cfg); return err },
		func() error { _, err := experiments.Fig6Histograms(cfg, true); return err },
		func() error { _, err := experiments.Fig6Spectra(cfg); return err },
	}
	for i, n := range names {
		ns, err := perCallNS(1, func(int) error { return calls[i]() })
		if err != nil {
			return err
		}
		p.L[n.metric] = ns / 1e6
	}
	return nil
}
