// Command trustmon demonstrates the runtime trust evaluation loop of
// Figure 1: it builds the virtual chip, fits the golden fingerprint and
// spectral envelope, then streams live traces through the core.Monitor
// while Trojans are activated on a schedule, printing one verdict line
// per trace.
//
// The fitted golden models can be persisted with -save and reused with
// -load, the deployment flow where fingerprinting happens once after
// installation.
//
// With -inject the monitored stream is acquired through a degraded
// readout chain (internal/degrade's fault profile at the given
// severity) and the monitor runs with the hardening stages — health
// gate, debouncing, guarded re-baselining — so the demo shows the
// difference between "Trojan activated" and "sensor dying" live.
//
// With -array N the whole-die sensor and its golden fingerprint are
// replaced by an N×N on-chip coil array with the golden-model-free
// self-referencing monitor: the array calibrates on the deployed chip
// itself, then each frame's verdict names the hottest cell and die tile
// (-channels bounds the ADC mux budget).
//
// With -fleet the single-die demo is replaced by the internal/fleet
// service: a population of process-variation sibling dies monitored by
// sharded workers behind a bounded verdict queue, with cross-die
// common-mode cancellation and a Benjamini-Hochberg alarm list. The
// service runs until -rounds, -duration, or SIGINT/SIGTERM, drains
// in-flight verdicts, prints the fleet summary, and exits 0; -http
// serves the live /status and /alarms JSON endpoints meanwhile.
//
// Usage:
//
//	trustmon [-traces n] [-golden n] [-cycles n] [-seed n] [-inject sev] [-save dir] [-load dir] [-array n [-channels k]]
//	trustmon -fleet [-dies n] [-shards n] [-rounds n] [-duration d] [-prevalence f] [-severity f] [-http addr]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/degrade"
	"emtrust/internal/frand"
	"emtrust/internal/sensorarray"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

func main() {
	nTraces := flag.Int("traces", 40, "monitored traces to stream")
	nGolden := flag.Int("golden", 50, "golden traces for the fingerprint")
	cycles := flag.Int("cycles", 32, "clock cycles per trace")
	seed := flag.Int64("seed", 1, "random seed")
	saveDir := flag.String("save", "", "save the fitted golden models to this directory")
	loadDir := flag.String("load", "", "load previously saved golden models instead of fitting")
	inject := flag.Float64("inject", 0, "inject acquisition-chain faults at this severity (0 = healthy channel; 1-3 is a plausible aging sweep) and run the hardened monitor")
	array := flag.Int("array", 0, "monitor with an NxN sensor array and the golden-model-free detector instead of the fingerprint (0 = off)")
	channels := flag.Int("channels", 0, "ADC channel budget for -array: coils digitized per capture window (0 = all at once)")
	fleetMode := flag.Bool("fleet", false, "run the fleet monitoring service instead of the single-die demo")
	dies := flag.Int("dies", 64, "fleet population size (-fleet)")
	shards := flag.Int("shards", 4, "fleet monitor workers (-fleet)")
	rounds := flag.Int("rounds", 0, "fleet monitored rounds per die, 0 = until -duration or signal (-fleet)")
	duration := flag.Duration("duration", 0, "fleet run deadline, 0 = none (-fleet)")
	prevalence := flag.Float64("prevalence", 0.01, "fraction of fleet dies fabricated with the Trojan (-fleet)")
	severity := flag.Float64("severity", 1, "fleet acquisition-chain aging severity (-fleet)")
	httpAddr := flag.String("http", "", "serve fleet /status and /alarms on this address, e.g. :8080 (-fleet)")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile of the run to this file")
	blockprofile := flag.String("blockprofile", "", "write a blocking (off-CPU wait) profile of the run to this file")
	flag.Parse()

	defer startContentionProfiles(*mutexprofile, *blockprofile)()

	if *fleetMode {
		runFleet(fleetFlags{
			dies: *dies, shards: *shards, rounds: *rounds, duration: *duration,
			prevalence: *prevalence, severity: *severity, seed: *seed, httpAddr: *httpAddr,
		})
		return
	}

	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	pt := []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}

	cfg := chip.DefaultConfig()
	cfg.Seed = *seed
	c, err := chip.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.DeactivateAll(); err != nil {
		log.Fatal(err)
	}
	c.EnableA2(false)

	if *array > 0 {
		runArray(c, *array, *channels, *nTraces, *cycles, pt, key)
		return
	}

	ch := chip.MeasurementChannels()
	rng := frand.NewRand(*seed)

	capture := func() *trace.Trace {
		cap, err := c.CapturePT(pt, key, *cycles)
		if err != nil {
			log.Fatal(err)
		}
		s, _ := ch.Acquire(cap, rng)
		return s
	}

	var fp *core.Fingerprint
	var sd *core.SpectralDetector
	var golden []*trace.Trace
	if *loadDir != "" {
		log.Printf("loading golden models from %s", *loadDir)
		fp = loadFingerprint(*loadDir)
		sd = loadSpectral(*loadDir)
	} else {
		log.Printf("fitting golden fingerprint from %d traces...", *nGolden)
		golden = make([]*trace.Trace, *nGolden)
		for i := range golden {
			golden[i] = capture()
		}
		var err error
		fp, err = core.BuildFingerprint(golden, core.DefaultFingerprintConfig())
		if err != nil {
			log.Fatal(err)
		}
		sd, err = core.BuildSpectralDetector(golden, core.DefaultSpectralConfig())
		if err != nil {
			log.Fatal(err)
		}
	}
	if *saveDir != "" {
		saveModels(*saveDir, fp, sd)
		log.Printf("saved golden models to %s", *saveDir)
	}

	var mon *core.Monitor
	var err2 error
	if *inject > 0 {
		// The health envelope needs golden traces; with -load the models
		// came from disk, so calibrate from a short fresh capture on the
		// still-healthy channel.
		if golden == nil {
			log.Printf("capturing %d traces to calibrate the channel-health envelope...", healthCalibration)
			golden = make([]*trace.Trace, healthCalibration)
			for i := range golden {
				golden[i] = capture()
			}
		}
		health, err := core.BuildChannelHealth(golden, core.DefaultHealthConfig())
		if err != nil {
			log.Fatal(err)
		}
		prof := degrade.Profile{
			Severity: *inject,
			RefRMS:   health.GoldenRMS,
			RefPeak:  health.GoldenPeak,
			Span:     4 * *nTraces,
		}
		ch.Sensor = degrade.Wrap(ch.Sensor, prof.Stages()...)
		log.Printf("injecting acquisition-chain faults at severity %.1fx; hardened monitor engaged", *inject)
		mon, err2 = core.NewMonitor(fp, sd, core.HardenedOptions(health))
	} else {
		mon, err2 = core.NewMonitor(fp, sd, core.MonitorOptions{Buffer: 8})
	}
	if err2 != nil {
		log.Fatal(err2)
	}

	sched := newSchedule(c, *nTraces)
	go func() {
		defer mon.Close()
		for i := 0; i < *nTraces; i++ {
			sched.set(i)
			mon.Submit(capture())
		}
	}()

	for v := range mon.Verdicts() {
		fmt.Println(v)
	}
	total, alarms := mon.Stats()
	if *inject > 0 {
		rejected, confirmed := mon.HardenedStats()
		fmt.Printf("monitored %d traces, %d raw alarms, %d confirmed, %d health-rejected\n",
			total, alarms, confirmed, rejected)
	} else {
		fmt.Printf("monitored %d traces, %d alarms\n", total, alarms)
	}
}

// schedule is the demo's Trojan activation schedule, like the Section
// V-B measurements: a stream of n traces splits into one dormant phase
// and one phase per Trojan, each activating the next; traces past the
// last phase run dormant.
type schedule struct {
	c        *chip.Chip
	perPhase int
	active   int // index into trojan.Kinds(), -1 while all are dormant
}

func newSchedule(c *chip.Chip, n int) *schedule {
	return &schedule{c: c, perPhase: max(n/(len(trojan.Kinds())+1), 1), active: -1}
}

// set switches the chip to trace i's phase, logging each switch.
func (s *schedule) set(i int) {
	kinds := trojan.Kinds()
	want := i/s.perPhase - 1
	if want >= len(kinds) {
		want = -1
	}
	if want == s.active {
		return
	}
	if s.active >= 0 {
		if err := s.c.SetTrojan(kinds[s.active], false); err != nil {
			log.Fatal(err)
		}
	}
	if want >= 0 {
		if err := s.c.SetTrojan(kinds[want], true); err != nil {
			log.Fatal(err)
		}
		log.Printf("--- adversary activates %v (%s) ---", kinds[want], kinds[want].Description())
	} else {
		log.Printf("--- all Trojans dormant ---")
	}
	s.active = want
}

// healthCalibration is the capture count for the channel-health envelope
// when the golden models were loaded from disk.
const healthCalibration = 20

// arrayCalFrames is the self-calibration frame count of the -array mode.
const arrayCalFrames = 8

// runArray is the -array mode: no golden model anywhere. The array
// calibrates its cross-sensor baseline on the deployed chip, then the
// activation schedule runs and each frame's verdict names the hottest
// cell; at the end of an alarming phase the per-cell heatmap is printed.
func runArray(c *chip.Chip, n, channels, nTraces, cycles int, pt, key []byte) {
	acfg := sensorarray.ConfigFor(c.Config(), n)
	acfg.Channels = channels
	arr, err := sensorarray.New(c.Floorplan(), acfg)
	if err != nil {
		log.Fatal(err)
	}
	ch := sensorarray.DefaultChannel()
	scan := func() *sensorarray.Frame {
		f, err := arr.ScanEncryption(c, ch, pt, key, cycles)
		if err != nil {
			log.Fatal(err)
		}
		return f
	}

	log.Printf("sensor array %dx%d, %d capture windows per frame; self-calibrating on %d frames (no golden model)",
		n, n, arr.Windows(), arrayCalFrames)
	scan() // warm-up, absorbs the cold-start transient
	frames := make([]*sensorarray.Frame, arrayCalFrames)
	for i := range frames {
		frames[i] = scan()
	}
	mon, err := sensorarray.Calibrate(arr, frames, nil, core.DefaultSelfReferenceConfig())
	if err != nil {
		log.Fatal(err)
	}

	sched := newSchedule(c, nTraces)
	grid := c.Floorplan().Grid
	alarms := 0
	for i := 0; i < nTraces; i++ {
		sched.set(i)
		f := scan()
		v, err := mon.Evaluate(f)
		if err != nil {
			log.Fatal(err)
		}
		status := "ok"
		if v.Alarm {
			alarms++
			cx, cy := arr.CellXY(v.ArgMax)
			tile := arr.CellTile(v.ArgMax)
			status = fmt.Sprintf("ALARM  cell (%d,%d) tile (%d,%d)", cx, cy, tile%grid.NX, tile/grid.NX)
		}
		fmt.Printf("frame %3d: max z %7.1f  %s\n", i, v.Max, status)
		if v.Alarm && (i+1)%sched.perPhase == 0 {
			fmt.Print(mon.HeatmapString(v.Z))
		}
	}
	fmt.Printf("monitored %d frames, %d alarms, no golden model consulted\n", nTraces, alarms)
}

func saveModels(dir string, fp *core.Fingerprint, sd *core.SpectralDetector) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	writeTo := func(name string, save func(w io.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			log.Fatal(err)
		}
		if err := save(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	writeTo("fingerprint.json", fp.Save)
	writeTo("spectral.json", sd.Save)
}

func loadFingerprint(dir string) *core.Fingerprint {
	f, err := os.Open(filepath.Join(dir, "fingerprint.json"))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fp, err := core.LoadFingerprint(f)
	if err != nil {
		log.Fatal(err)
	}
	return fp
}

func loadSpectral(dir string) *core.SpectralDetector {
	f, err := os.Open(filepath.Join(dir, "spectral.json"))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	sd, err := core.LoadSpectralDetector(f)
	if err != nil {
		log.Fatal(err)
	}
	return sd
}

// startContentionProfiles enables the runtime's mutex and block
// samplers when the corresponding flag names an output file, and
// returns the function that writes the collected profiles. The
// samplers stay off by default — they tax every lock operation — so
// the fleet hot path only pays for them when a profile was requested.
func startContentionProfiles(mutexFile, blockFile string) func() {
	if mutexFile == "" && blockFile == "" {
		return func() {}
	}
	if mutexFile != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if blockFile != "" {
		// Sample every blocking event at nanosecond granularity; the
		// shard workers block on channel sends, not spin, so the
		// overhead is acceptable for a profiling run.
		runtime.SetBlockProfileRate(1)
	}
	write := func(name, file string) {
		if file == "" {
			return
		}
		f, err := os.Create(file)
		if err != nil {
			log.Printf("contention profile: %v", err)
			return
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			log.Printf("contention profile %s: %v", name, err)
			return
		}
		log.Printf("wrote %s profile to %s", name, file)
	}
	return func() {
		write("mutex", mutexFile)
		write("block", blockFile)
	}
}
