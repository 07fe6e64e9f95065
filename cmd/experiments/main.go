// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run id] [-scale f] [-seed n] [-html f] [-cpuprofile f] [-memprofile f]
//
// where id is all or one of the ids -list prints: table1, snr-sim,
// snr-measured, euclid-sim, a2-spectrum, fig6-probe, fig6-sensor,
// fig6-spectra, layout, coverage, localize, variation, robustness,
// faults, degradation, localization, fleet, campaign. The scale factor
// multiplies the trace counts (use >= 5 for smooth histograms; the
// defaults favor quick runs). The -html flag also writes the results
// just printed as one HTML page: the sections of the experiments that
// ran, in run order, so -run all puts Figure 4 before Figure 6 and -run
// a2-spectrum writes Figure 4 alone; nothing is computed twice. The
// -cpuprofile and -memprofile flags write pprof profiles of the
// selected experiments, so performance work can grab profiles of any
// workload without code edits.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"emtrust/internal/experiments"
)

type runner struct {
	id   string
	desc string
	fn   func(experiments.Config) (fmt.Stringer, error)
}

func runners() []runner {
	return []runner{
		{"table1", "Table I: Trojan sizes vs the AES design", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Table1(c) }},
		{"snr-sim", "Section IV-B: simulated sensor vs probe SNR", func(c experiments.Config) (fmt.Stringer, error) { return experiments.SNRSimulation(c) }},
		{"snr-measured", "Section V-A: measured sensor vs probe SNR", func(c experiments.Config) (fmt.Stringer, error) { return experiments.SNRMeasured(c) }},
		{"euclid-sim", "Section IV-C: Euclidean distances per Trojan", func(c experiments.Config) (fmt.Stringer, error) { return experiments.EuclideanSimulation(c) }},
		{"a2-spectrum", "Figure 4: A2 Trojan in the frequency domain", func(c experiments.Config) (fmt.Stringer, error) { return experiments.A2Spectrum(c) }},
		{"fig6-probe", "Figure 6(a)-(d): external probe histograms", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Fig6Histograms(c, false) }},
		{"fig6-sensor", "Figure 6(e)-(h): on-chip sensor histograms", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Fig6Histograms(c, true) }},
		{"fig6-spectra", "Figure 6(i)-(l): sensor spectra per Trojan", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Fig6Spectra(c) }},
		{"layout", "Figure 3: floorplan with the on-chip sensor", func(c experiments.Config) (fmt.Stringer, error) { return experiments.LayoutReport(c) }},
		{"coverage", "Extension: EM framework vs ring-oscillator-network baseline", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Coverage(c) }},
		{"localize", "Extension: Trojan localization with quadrant spirals", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Localize(c) }},
		{"variation", "Extension: golden-chip vs self-referenced fingerprints under process variation", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Variation(c) }},
		{"robustness", "Extension: detection vs environment noise sweep", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Robustness(c) }},
		{"faults", "Extension: stuck-at fault detectability (EM vs functional test)", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Faults(c) }},
		{"degradation", "Extension: acquisition-chain faults, naive vs hardened monitor", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Degradation(c) }},
		{"localization", "Extension: golden-model-free detection and localization with the sensor array", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Localization(c) }},
		{"fleet", "Extension: population-scale monitoring with FDR-controlled fleet alarms", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Fleet(c) }},
		{"campaign", "Extension: generated Trojan campaign with ROC sweeps and stimulus search", func(c experiments.Config) (fmt.Stringer, error) { return experiments.Campaign(c) }},
	}
}

func main() {
	runID := flag.String("run", "all", "experiment id or 'all'")
	scale := flag.Float64("scale", 1, "trace-count multiplier")
	seed := flag.Int64("seed", 1, "random seed for chips and noise")
	list := flag.Bool("list", false, "list experiment ids and exit")
	htmlOut := flag.String("html", "", "also write the results as an HTML report (tables + SVG figures) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	flag.Parse()

	if *list {
		for _, r := range runners() {
			fmt.Printf("%-14s %s\n", r.id, r.desc)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	code := run(*runID, *scale, *seed, *htmlOut)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		runtime.GC() // materialize the retained heap
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
	os.Exit(code)
}

// run executes the selected experiments and returns the process exit
// code, so main can flush profiles on every path.
func run(runID string, scale float64, seed int64, htmlOut string) int {
	cfg, err := experiments.DefaultConfig().Scaled(scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg.Chip.Seed = seed

	var results []fmt.Stringer
	for _, r := range runners() {
		if runID != "all" && runID != r.id {
			continue
		}
		start := time.Now()
		res, err := r.fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			return 1
		}
		fmt.Printf("=== %s — %s (%.1fs) ===\n%s\n", r.id, r.desc, time.Since(start).Seconds(), res)
		results = append(results, res)
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", runID)
		return 2
	}
	if htmlOut != "" {
		f, err := os.Create(htmlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := experiments.WriteHTMLReport(f, results...); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s\n", htmlOut)
	}
	return 0
}
