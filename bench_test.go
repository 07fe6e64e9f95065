// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact, reporting the headline numbers as custom
// metrics) plus ablation benchmarks for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package emtrust_test

import (
	"context"
	"fmt"
	"math"
	mathbits "math/bits"
	"math/rand"
	"testing"
	"time"

	"emtrust/internal/aes"
	"emtrust/internal/campaign"
	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/degrade"
	"emtrust/internal/dsp"
	"emtrust/internal/emfield"
	"emtrust/internal/experiments"
	"emtrust/internal/fleet"
	"emtrust/internal/frand"
	"emtrust/internal/layout"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
	"emtrust/internal/sensorarray"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// benchConfig keeps each experiment iteration around a second.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.GoldenTraces = 30
	cfg.TestTraces = 30
	return cfg
}

// BenchmarkTable1GateCounts regenerates Table I.
func BenchmarkTable1GateCounts(b *testing.B) {
	var aesGates int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		aesGates = res.AESGateCount
	}
	b.ReportMetric(float64(aesGates), "AES-gates")
}

// BenchmarkSNRSimulation regenerates the Section IV-B SNR comparison.
func BenchmarkSNRSimulation(b *testing.B) {
	var sensor, probe float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.SNRSimulation(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		sensor, probe = res.SensorSNRdB, res.ProbeSNRdB
	}
	b.ReportMetric(sensor, "sensor-dB")
	b.ReportMetric(probe, "probe-dB")
}

// BenchmarkSNRMeasured regenerates the Section V-A SNR comparison.
func BenchmarkSNRMeasured(b *testing.B) {
	var sensor, probe float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.SNRMeasured(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		sensor, probe = res.SensorSNRdB, res.ProbeSNRdB
	}
	b.ReportMetric(sensor, "sensor-dB")
	b.ReportMetric(probe, "probe-dB")
}

// BenchmarkEuclideanSimulation regenerates the Section IV-C distances.
func BenchmarkEuclideanSimulation(b *testing.B) {
	rel := make(map[trojan.Kind]float64)
	for i := 0; i < b.N; i++ {
		res, err := experiments.EuclideanSimulation(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			rel[row.Trojan] = row.Relative
		}
	}
	for _, k := range trojan.Kinds() {
		b.ReportMetric(rel[k], k.String()+"-rel")
	}
}

// BenchmarkA2Spectrum regenerates Figure 4.
func BenchmarkA2Spectrum(b *testing.B) {
	var increase float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.A2Spectrum(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		increase = res.PeakIncrease
	}
	b.ReportMetric(increase, "peak-increase-x")
}

func benchHistograms(b *testing.B, useSensor bool) {
	overlap := make(map[trojan.Kind]float64)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6Histograms(benchConfig(), useSensor)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Panels {
			overlap[p.Trojan] = p.Overlap
		}
	}
	for _, k := range trojan.Kinds() {
		b.ReportMetric(overlap[k], k.String()+"-overlap")
	}
}

// BenchmarkFig6ProbeHistograms regenerates Figure 6(a)-(d).
func BenchmarkFig6ProbeHistograms(b *testing.B) { benchHistograms(b, false) }

// BenchmarkFig6SensorHistograms regenerates Figure 6(e)-(h).
func BenchmarkFig6SensorHistograms(b *testing.B) { benchHistograms(b, true) }

// BenchmarkFig6SensorSpectra regenerates Figure 6(i)-(l).
func BenchmarkFig6SensorSpectra(b *testing.B) {
	detected := 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6Spectra(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		detected = 0
		for _, p := range res.Panels {
			if p.Detected {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "trojans-detected")
}

// BenchmarkLayoutReport regenerates the Figure 3 floorplan view.
func BenchmarkLayoutReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LayoutReport(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverageVsRON regenerates the extension experiment comparing
// the EM framework against the ring-oscillator-network baseline.
func BenchmarkCoverageVsRON(b *testing.B) {
	emWins := 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.Coverage(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		emWins = 0
		for _, row := range res.Rows {
			if row.EMRate > row.RONRate {
				emWins++
			}
		}
	}
	b.ReportMetric(float64(emWins), "threats-only-EM-catches")
}

// --- Ablation benchmarks (DESIGN.md section 5) ---------------------------

// BenchmarkAblationTileGrid sweeps the current-aggregation resolution:
// accuracy (SNR stability) versus coupling precompute and capture cost.
func BenchmarkAblationTileGrid(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Chip.Layout.TilesX, cfg.Chip.Layout.TilesY = n, n
			var snr float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.SNRSimulation(cfg)
				if err != nil {
					b.Fatal(err)
				}
				snr = res.SensorSNRdB
			}
			b.ReportMetric(snr, "sensor-dB")
		})
	}
}

// BenchmarkAblationPCAComponents sweeps the kept components: detection
// margin (T2's relative distance) versus dimensionality.
func BenchmarkAblationPCAComponents(b *testing.B) {
	for _, k := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Fingerprint.Components = k
			var rel float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.EuclideanSimulation(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, row := range res.Rows {
					if row.Trojan == trojan.T2LeakageCurrent {
						rel = row.Relative
					}
				}
			}
			b.ReportMetric(rel, "T2-rel")
		})
	}
}

// BenchmarkAblationSpiralTurns sweeps the on-chip coil turn count: total
// coupling (sensitivity) versus wiring.
func BenchmarkAblationSpiralTurns(b *testing.B) {
	nl := buildBenchNetlist(b)
	fp, err := layout.Place(nl, layout.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, turns := range []int{4, 10, 20} {
		b.Run(fmt.Sprintf("turns=%d", turns), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				coil := emfield.SpiralGrid(fp.Die, 1, 1, turns, 5e-6)[0]
				cp, err := emfield.NewCoupling(coil, fp.Grid, 25e-12, 64)
				if err != nil {
					b.Fatal(err)
				}
				total = 0
				for _, m := range cp.M {
					total += math.Abs(m)
				}
			}
			b.ReportMetric(total*1e12, "coupling-pH")
		})
	}
}

// BenchmarkAblationProbeHeight sweeps the external probe height: why the
// on-chip sensor wins as distance grows.
func BenchmarkAblationProbeHeight(b *testing.B) {
	nl := buildBenchNetlist(b)
	fp, err := layout.Place(nl, layout.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, z := range []float64{50e-6, 100e-6, 200e-6, 400e-6} {
		b.Run(fmt.Sprintf("z=%.0fum", z*1e6), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				coil := emfield.ExternalProbe(fp.Die, 0.5e-3, 8, z, 20e-6)
				cp, err := emfield.NewCoupling(coil, fp.Grid, 25e-12, 64)
				if err != nil {
					b.Fatal(err)
				}
				total = 0
				for _, m := range cp.M {
					total += math.Abs(m)
				}
			}
			b.ReportMetric(total*1e12, "coupling-pH")
		})
	}
}

// BenchmarkAblationWindow sweeps the spectral window choice for the
// Section III-E detector.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []dsp.Window{dsp.Rectangular, dsp.Hann, dsp.Blackman} {
		b.Run(w.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Spectral.Window = w
			var increase float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.A2Spectrum(cfg)
				if err != nil {
					b.Fatal(err)
				}
				increase = res.PeakIncrease
			}
			b.ReportMetric(increase, "peak-increase-x")
		})
	}
}

// BenchmarkAblationGoldenSetSize sweeps the golden set size: Eq. (1)
// threshold stability versus fitting cost.
func BenchmarkAblationGoldenSetSize(b *testing.B) {
	c, err := chip.New(chip.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := c.DeactivateAll(); err != nil {
		b.Fatal(err)
	}
	key := make([]byte, 16)
	pt := make([]byte, 16)
	ch := chip.SimulationChannels()
	rng := frand.NewRand(c.Config().Seed)
	for _, n := range []int{10, 30, 90} {
		b.Run(fmt.Sprintf("golden=%d", n), func(b *testing.B) {
			var threshold float64
			for i := 0; i < b.N; i++ {
				golden := make([]*trace.Trace, 0, n)
				for j := 0; j < n; j++ {
					cap, err := c.CapturePT(pt, key, 32)
					if err != nil {
						b.Fatal(err)
					}
					s, _ := ch.Acquire(cap, rng)
					golden = append(golden, s)
				}
				fp, err := core.BuildFingerprint(golden, core.DefaultFingerprintConfig())
				if err != nil {
					b.Fatal(err)
				}
				threshold = fp.Threshold
			}
			b.ReportMetric(threshold*1e9, "threshold-nV")
		})
	}
}

func buildBenchNetlist(b *testing.B) *netlist.Netlist {
	b.Helper()
	cfg := chip.DefaultConfig()
	c, err := chip.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c.Netlist()
}

// BenchmarkLocalize regenerates the quadrant-localization extension.
func BenchmarkLocalize(b *testing.B) {
	correct := 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.Localize(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		correct = 0
		for _, row := range res.Rows {
			if row.Correct {
				correct++
			}
		}
	}
	b.ReportMetric(float64(correct), "trojans-localized")
}

// BenchmarkVariation regenerates the process-variation extension.
func BenchmarkVariation(b *testing.B) {
	var goldenFA, selfFA float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Variation(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		goldenFA = res.Rows[0].FalseAlarmRate
		selfFA = res.Rows[1].FalseAlarmRate
	}
	b.ReportMetric(goldenFA, "goldenchip-false-alarms")
	b.ReportMetric(selfFA, "selfref-false-alarms")
}

// BenchmarkSpectralPlan measures one planned one-sided amplitude
// spectrum into a reused buffer — the monitor verdict path's per-trace
// transform cost. Zero allocations at steady state.
func BenchmarkSpectralPlan(b *testing.B) {
	x := make([]float64, 4096)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.1)
	}
	p := dsp.PlanForLength(len(x))
	var amp []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		amp = p.SpectrumInto(amp, x, dsp.Hann)
	}
}

// BenchmarkCachedCoupling measures a warm coupling-cache hit at the
// default geometry (the cost every chip build after the first pays).
func BenchmarkCachedCoupling(b *testing.B) {
	cfg := chip.DefaultConfig()
	c, err := chip.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fp := c.Floorplan()
	coil := emfield.SpiralGrid(fp.Die, 1, 1, cfg.SpiralTurns, cfg.SpiralZ)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emfield.CachedCoupling(coil, fp.Grid, cfg.TileLoopArea, cfg.Quad); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegradedMonitor measures the hardened runtime monitor on a
// degraded Trojan-free stream: health pre-check, PCA projection,
// baseline shift, debounce and the guarded EWMA update per trace. The
// false-alarm metric tracks what the hardening buys at the moderate
// fault severity.
func BenchmarkDegradedMonitor(b *testing.B) {
	cfg := benchConfig()
	c, err := chip.New(cfg.Chip)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.DeactivateAll(); err != nil {
		b.Fatal(err)
	}
	ch := chip.SimulationChannels()
	rng := frand.NewRand(cfg.Chip.Seed)
	capture := func() *trace.Trace {
		cap, err := c.CapturePT(cfg.Plaintext, cfg.Key, cfg.CaptureCycles)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := ch.Acquire(cap, rng)
		return s
	}
	golden := make([]*trace.Trace, cfg.GoldenTraces)
	for i := range golden {
		golden[i] = capture()
	}
	fp, err := core.BuildFingerprint(golden, cfg.Fingerprint)
	if err != nil {
		b.Fatal(err)
	}
	health, err := core.BuildChannelHealth(golden, core.DefaultHealthConfig())
	if err != nil {
		b.Fatal(err)
	}
	prof := degrade.Profile{
		Severity: 2,
		RefRMS:   health.GoldenRMS,
		RefPeak:  health.GoldenPeak,
		Span:     4 * cfg.TestTraces,
	}
	dch := degrade.Wrap(degrade.Identity{}, prof.Stages()...)
	stream := c.NextStream()
	degraded := make([]*trace.Trace, cfg.TestTraces)
	for i := range degraded {
		clean := capture()
		degraded[i] = dch.AcquireAt(i, clean.Samples, clean.Dt, c.SplitRand(stream, uint64(i)))
	}
	var falseAlarms float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := core.NewEvaluator(fp, nil, core.HardenedOptions(health))
		if err != nil {
			b.Fatal(err)
		}
		confirmed := 0
		for _, t := range degraded {
			if ev.Eval(t).Confirmed() {
				confirmed++
			}
		}
		falseAlarms = float64(confirmed) / float64(len(degraded))
	}
	b.ReportMetric(float64(len(degraded))*float64(b.N)/b.Elapsed().Seconds(), "traces_per_s")
	b.ReportMetric(100*falseAlarms, "false-alarm-%")
}

// BenchmarkArrayCapture measures one full sensor-array frame on a
// prebuilt chip: one chip capture per mux window, fanned out over the
// 16 per-coil emf syntheses and acquisitions through the worker pool.
func BenchmarkArrayCapture(b *testing.B) {
	cfg := benchConfig()
	c, err := chip.New(cfg.Chip)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.DeactivateAll(); err != nil {
		b.Fatal(err)
	}
	c.EnableA2(false)
	arr, err := sensorarray.New(c.Floorplan(), sensorarray.ConfigFor(cfg.Chip, 4))
	if err != nil {
		b.Fatal(err)
	}
	ch := sensorarray.DefaultChannel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arr.ScanEncryption(c, ch, cfg.Plaintext, cfg.Key, cfg.CaptureCycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(arr.NumCoils()*b.N)/b.Elapsed().Seconds(), "coils_per_s")
}

// BenchmarkCleanCapture times repeated 32-cycle fixed-stimulus captures
// on a prebuilt dormant chip. From the second iteration on the chip sits
// at the capture's fixed point, so the chip replays its fixed-point slot
// instead of simulating: this is the cost of a replayed capture, not of
// a simulated one (BenchmarkBatchLane times simulation).
func BenchmarkCleanCapture(b *testing.B) {
	cfg := benchConfig()
	c, err := chip.New(cfg.Chip)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CapturePT(cfg.Plaintext, cfg.Key, cfg.CaptureCycles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchLane times simulated captures at 16, 32 and 512 cycles:
// one CaptureBatch of BatchLanes random plaintexts, then a ResetState and
// scalar CapturePT for each of the first batchLaneScalars of them, all
// from the reset state of the dormant chip. Batched lanes always
// simulate, and each scalar capture has a fresh plaintext, so the
// fixed-point slot never replays one. It reports the cost per batched
// lane, per scalar ResetState+CapturePT and their ratio, and the
// ResetState share of the scalar cost.
func BenchmarkBatchLane(b *testing.B) {
	const batchLaneScalars = 8
	cfg := benchConfig()
	c, err := chip.New(cfg.Chip)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.DeactivateAll(); err != nil {
		b.Fatal(err)
	}
	c.EnableA2(false)
	rng := rand.New(rand.NewSource(1))
	pts := make([][]byte, chip.BatchLanes())
	for i := range pts {
		pts[i] = make([]byte, 16)
	}
	if _, err := c.CaptureBatch(pts, cfg.Key, 16); err != nil { // builds the wide engine
		b.Fatal(err)
	}
	for _, cycles := range []int{16, 32, 512} {
		b.Run(fmt.Sprintf("cycles=%d", cycles), func(b *testing.B) {
			var laneNS, scalarNS, resetNS time.Duration
			for i := 0; i < b.N; i++ {
				for _, pt := range pts {
					rng.Read(pt)
				}
				c.ResetState()
				start := time.Now()
				if _, err := c.CaptureBatch(pts, cfg.Key, cycles); err != nil {
					b.Fatal(err)
				}
				laneNS += time.Since(start)
				start = time.Now()
				for _, pt := range pts[:batchLaneScalars] {
					t := time.Now()
					c.ResetState()
					resetNS += time.Since(t)
					if _, err := c.CapturePT(pt, cfg.Key, cycles); err != nil {
						b.Fatal(err)
					}
				}
				scalarNS += time.Since(start)
			}
			lane := laneNS.Seconds() * 1e6 / float64(b.N*len(pts))
			scalar := scalarNS.Seconds() * 1e6 / float64(b.N*batchLaneScalars)
			b.ReportMetric(lane, "lane_us")
			b.ReportMetric(scalar, "scalar_us")
			b.ReportMetric(resetNS.Seconds()*1e6/float64(b.N*batchLaneScalars), "reset_us")
			b.ReportMetric(lane/scalar, "lane/scalar")
		})
	}
}

// engineVariants enumerates the two gate-simulation engines for the
// compiled-vs-reference microbenchmarks. bench.sh parses the sub-bench
// names to emit the speedup line.
func engineVariants() []struct {
	name string
	opts []logic.Option
} {
	return []struct {
		name string
		opts []logic.Option
	}{
		{"engine=compiled", nil},
		{"engine=reference", []logic.Option{logic.WithReferenceEngine()}},
	}
}

// aesBenchSim builds a bare AES-core simulator (no coupling precompute)
// for the engine microbenchmarks.
func aesBenchSim(b *testing.B, opts ...logic.Option) *logic.Simulator {
	b.Helper()
	bl := netlist.NewBuilder("aes_bench")
	aes.Generate(bl)
	sim, err := logic.New(bl.Build(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkTick measures one clock cycle of the paper's AES netlist
// under the capture workload the experiments actually run: one
// encryption per 32-cycle capture window (idle lead-in at cycle 0, the
// load edge at cycle 1, then the 11 round cycles and an idle tail),
// with batched toggle accounting drained per cycle — the exact shape of
// chip.CapturePT with the default CaptureCycles. The compiled
// event-driven engine must beat the reference full-cone evaluator by
// >= 3x here.
func BenchmarkTick(b *testing.B) {
	const window = 32 // experiments.DefaultConfig().CaptureCycles
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	for _, eng := range engineVariants() {
		b.Run(eng.name, func(b *testing.B) {
			sim := aesBenchSim(b, eng.opts...)
			sim.BatchToggles(true)
			rng := rand.New(rand.NewSource(1))
			pt := make([]byte, 16)
			var toggles, cycles int
			phase := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch phase {
				case 1:
					rng.Read(pt)
					sim.SetPortBits(aes.PortPT, aes.BytesToBits(pt))
					sim.SetPortBits(aes.PortKey, aes.BytesToBits(key))
					sim.SetPortUint(aes.PortStart, 1)
					sim.Settle()
				case 2:
					sim.SetPortUint(aes.PortStart, 0)
					sim.Settle()
				}
				sim.Tick()
				toggles += len(sim.TakeToggles())
				cycles++
				if phase++; phase == window {
					phase = 0
				}
			}
			b.StopTimer()
			if cycles > 0 {
				b.ReportMetric(float64(toggles)/float64(cycles), "toggles/cycle")
			}
		})
	}
}

// BenchmarkTickWide measures the bit-parallel engine on the same
// 32-cycle capture-window workload as BenchmarkTick, sweeping how many
// stimulus lanes one uint64 word carries. The lane-cycles/s metric is
// the figure to compare against BenchmarkTick's inverse ns/op: a full
// 64-lane word amortizes one word-parallel evaluation over 64
// encryptions, so per-lane cost falls roughly with the lane count until
// toggle extraction dominates.
func BenchmarkTickWide(b *testing.B) {
	const window = 32 // experiments.DefaultConfig().CaptureCycles
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	for _, lanes := range []int{1, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			sim := aesBenchSim(b)
			w, err := sim.Wide()
			if err != nil {
				b.Fatal(err)
			}
			sts := make([]*logic.State, lanes)
			for l := range sts {
				sts[l] = sim.State()
			}
			if err := w.LoadStates(sts); err != nil {
				b.Fatal(err)
			}
			var toggles int
			w.OnWideToggle = func(cell int32, diff, nv uint64) {
				toggles += mathbits.OnesCount64(diff)
			}
			rng := rand.New(rand.NewSource(1))
			laneBits := make([][]uint8, lanes)
			for l := range laneBits {
				laneBits[l] = make([]uint8, 128)
			}
			phase := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch phase {
				case 1:
					for l := range laneBits {
						for j := range laneBits[l] {
							laneBits[l][j] = uint8(rng.Intn(2))
						}
					}
					w.SetPortLanesBits(aes.PortPT, laneBits)
					w.SetPortBitsAll(aes.PortKey, aes.BytesToBits(key))
					w.SetPortUintAll(aes.PortStart, 1)
					w.Settle()
				case 2:
					w.SetPortUintAll(aes.PortStart, 0)
					w.Settle()
				}
				w.Tick()
				if phase++; phase == window {
					phase = 0
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(b.N*lanes)*1e9/float64(b.Elapsed().Nanoseconds()), "lane-cycles/s")
				b.ReportMetric(float64(toggles)/float64(b.N*lanes), "toggles/lane-cycle")
			}
		})
	}
}

// BenchmarkFleetThroughput measures the fleet service's monitored
// verdict throughput at 1000 dies: enrollment (the per-die fingerprint
// fitting that fleet.New runs) stays outside the timer, so the metric
// is the steady-state rate of the sharded tick/queue/aggregate loop.
// Each iteration also verifies the graceful-shutdown contract: the
// queue drains and no service goroutine outlives Wait.
func BenchmarkFleetThroughput(b *testing.B) {
	cfg := benchConfig()
	fc := fleet.DefaultConfig()
	fc.Chip = cfg.Chip
	fc.Key = cfg.Key
	fc.Plaintext = cfg.Plaintext
	fc.Seed = 1
	fc.Dies = 1000
	fc.Shards = 8
	fc.Prevalence = 0.01
	fc.Severity = 2
	fc.Rounds = 4
	fc.TickAverages = 2
	fc.GoldenTraces = 8
	fc.NullTraces = 12
	fc.QueueSize = 1 << 12
	fc.MinSamples = 2
	var verdicts uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := fleet.New(fc)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		st := s.Wait()
		b.StopTimer()
		if st.QueueLen != 0 {
			b.Fatalf("queue not drained: %d verdicts left", st.QueueLen)
		}
		if g := s.Goroutines(); g != 0 {
			b.Fatalf("goroutine leak: %d still live after Wait", g)
		}
		verdicts += st.Verdicts
		b.StartTimer()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(verdicts)/sec, "verdicts_per_s")
	}
}

// BenchmarkFleetThroughput10k is the 10000-die size point of the fleet
// benchmark: same per-die settings as BenchmarkFleetThroughput, ten
// times the fleet, fewer rounds so one iteration stays tractable. Its
// job is to prove the tick path's allocation discipline holds at
// scale — B/op must grow with the verdict payloads, not with a
// per-tick garbage rate multiplied by fleet size.
func BenchmarkFleetThroughput10k(b *testing.B) {
	cfg := benchConfig()
	fc := fleet.DefaultConfig()
	fc.Chip = cfg.Chip
	fc.Key = cfg.Key
	fc.Plaintext = cfg.Plaintext
	fc.Seed = 1
	fc.Dies = 10000
	fc.Shards = 8
	fc.Prevalence = 0.01
	fc.Severity = 2
	fc.Rounds = 2
	fc.TickAverages = 2
	fc.GoldenTraces = 8
	fc.NullTraces = 12
	fc.QueueSize = 1 << 12
	fc.MinSamples = 2
	var verdicts uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := fleet.New(fc)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		st := s.Wait()
		b.StopTimer()
		if st.QueueLen != 0 {
			b.Fatalf("queue not drained: %d verdicts left", st.QueueLen)
		}
		if g := s.Goroutines(); g != 0 {
			b.Fatalf("goroutine leak: %d still live after Wait", g)
		}
		verdicts += st.Verdicts
		b.StartTimer()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(verdicts)/sec, "verdicts_per_s")
	}
}

// BenchmarkDieTick measures one monitored round of a single die — the
// pooled acquisition (trimmed-mean averaging through the degradation
// stack), health check, feature extraction, PCA scoring, and the
// tracker/integrator update — with the shard, watchdog, and queue
// machinery out of the way. allocs/op is the headline: the steady-state
// tick must stay within the two fixed verdict-payload copies.
func BenchmarkDieTick(b *testing.B) {
	cfg := benchConfig()
	fc := fleet.DefaultConfig()
	fc.Chip = cfg.Chip
	fc.Key = cfg.Key
	fc.Plaintext = cfg.Plaintext
	fc.Seed = 1
	fc.Dies = 4
	fc.Shards = 1
	fc.Severity = 2
	fc.TickAverages = 2
	fc.GoldenTraces = 8
	fc.NullTraces = 12
	s, err := fleet.New(fc)
	if err != nil {
		b.Fatal(err)
	}
	s.TickOnce(0, 0) // warm the die's reusable buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TickOnce(0, i+1)
	}
}

// BenchmarkEMFWeightedInto measures the per-die waveform synthesis the
// fleet runs at enrollment: per-tile gain-weighted flux accumulation
// over the chip grid plus one backward differentiation, into a reused
// buffer. The fused four-tile sweep is what this tracks.
func BenchmarkEMFWeightedInto(b *testing.B) {
	cfg := chip.DefaultConfig()
	c, err := chip.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fp := c.Floorplan()
	coil := emfield.SpiralGrid(fp.Die, 1, 1, cfg.SpiralTurns, cfg.SpiralZ)[0]
	cp, err := emfield.CachedCoupling(coil, fp.Grid, cfg.TileLoopArea, cfg.Quad)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const samples = 512
	currents := make([][]float64, len(cp.M))
	gains := make([]float64, len(cp.M))
	for i := range currents {
		gains[i] = 0.9 + 0.2*rng.Float64()
		w := make([]float64, samples)
		for j := range w {
			w[j] = rng.NormFloat64() * 1e-3
		}
		currents[i] = w
	}
	dst := make([]float64, samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = cp.EMFWeightedInto(dst, currents, 1e-9, gains)
	}
}

// BenchmarkSettle measures a sparse re-settle: one plaintext bit flips
// per iteration, the common shape of port-driven stimulus between
// ticks. Event-driven evaluation only touches the flipped bit's cone.
func BenchmarkSettle(b *testing.B) {
	for _, eng := range engineVariants() {
		b.Run(eng.name, func(b *testing.B) {
			sim := aesBenchSim(b, eng.opts...)
			bits := make([]uint8, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bits[i%128] ^= 1
				sim.SetPortBits(aes.PortPT, bits)
				sim.Settle()
			}
		})
	}
}

// BenchmarkCampaignSearch measures one full coverage-guided stimulus
// search (GA, 32 individuals x 6 generations through the wide engine)
// against a generated rare-trigger Trojan on the AES core, reporting
// the achieved partial-trigger coverage as a custom metric.
func BenchmarkCampaignSearch(b *testing.B) {
	chipCfg := chip.DefaultConfig()
	chipCfg.WithTrojans = false
	chipCfg.WithA2 = false
	golden, err := chip.New(chipCfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := campaign.DefaultConfig()
	gen.Members = 4
	stim := campaign.AESStimulus()
	camp, err := campaign.Generate(golden.Netlist(), stim, nil, gen)
	if err != nil {
		b.Fatal(err)
	}
	m := camp.Members[3] // k=5, the middle of the sweep
	chipCfg.Insert = m
	infected, err := chip.New(chipCfg)
	if err != nil {
		b.Fatal(err)
	}
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := campaign.NewEvaluator(infected.Netlist(), stim, m, 0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := campaign.Search(e, campaign.GA{}, 32, 6, campaign.SearchSeed(gen.Seed, m.ID))
		if err != nil {
			b.Fatal(err)
		}
		frac = res.BestFrac
	}
	b.ReportMetric(100*frac, "coverage_%")
}
