// Command perfbench is the repository benchmark: three workloads at
// production shapes (fleet, paper-sweep, campaign), each measured in
// fresh processes so every process-wide cache starts empty, with output
// checks that turn a fast but wrong run into failed operations, and a
// traced mode that reports per-layer metrics and a time ledger.
//
// Build and run it through run.sh from the root of the repository:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// an output check fails or a workload returns an error. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"emtrust/internal/chip"
	"emtrust/internal/fleet"
)

// childResult is what one measuring process reports to the parent, as
// the last line of its standard output.
type childResult struct {
	SetupS   float64 `json:"setup_s"`
	MeasureS float64 `json:"measure_s"`
	// CPUS is the process CPU time (user and system) of the measured
	// phase.
	CPUS      float64 `json:"cpu_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Problems describes every output check that failed.
	Problems []string `json:"problems,omitempty"`
	// UnitMS holds the wall time of each measured unit, where a workload
	// has units finer than the whole run.
	UnitMS    []float64 `json:"unit_ms,omitempty"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// Layers and Report are filled by a traced process only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Report []string           `json:"report,omitempty"`

	// fleet and fleetStatus hand a traced fleet run's drained service to
	// the layer probes.
	fleet       *fleet.Service
	fleetStatus fleet.Status
}

// fail records a failed output check; every attempted unit of the
// process then counts as failed.
func (r *childResult) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// failedOps is the number of failed operations: every attempted one
// when an output check failed, else those the workload itself counted.
func (r *childResult) failedOps() int {
	if len(r.Problems) > 0 {
		return r.Attempted
	}
	return r.Failed
}

// opsRate is the process's completed operations per measured second.
func (r *childResult) opsRate() float64 {
	return rate(r.Attempted, r.failedOps(), r.MeasureS)
}

// workload is one benchmark input: run measures it once in the current
// process. budget is the measured time the process may spend where the
// workload is time-boxed; tr is nil for untraced runs.
type workload struct {
	rateName string
	run      func(seed int64, budget float64, tr *tracer) (*childResult, error)
}

var workloads = map[string]workload{
	"fleet":       {"verdicts_per_s", runFleet},
	"paper-sweep": {"seeds_per_s", runSweep},
	"campaign":    {"members_per_s", runCampaign},
}

// metric is one reported figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	// minProcs is the number of fresh processes an untraced run measures
	// at least; setup_s, units_per_s and peak_rss_mb are their medians.
	// Five keep the median of the sub-0.1 s set-ups of paper-sweep and
	// campaign steady.
	minProcs = 5
	// maxProcs caps the processes of one run whatever --seconds says.
	maxProcs = 8
	// runDeadline bounds a whole run, children included.
	runDeadline = 170 * time.Second
)

func main() {
	name := flag.String("workload", "", "fleet, paper-sweep or campaign")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	child := flag.Bool("child", false, "measure once in this process and print a JSON line (used by the parent run)")
	budget := flag.Float64("budget", 0, "measured seconds for this process (with -child)")
	spans := flag.String("spans", "", "file a traced child writes its spans to (with -child)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want fleet, paper-sweep or campaign)\n", *name)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	if *child {
		res, err := runChild(*name, w, *seed, *budget, *traced == 1, *spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(ctx, *name, *seed, *seconds)
	} else {
		res, err = runUntraced(ctx, *name, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runChild measures the workload once in this process. A traced child
// also runs the layer probes and writes its spans out at the end.
func runChild(name string, w workload, seed int64, budget float64, traced bool, spansPath string) (*childResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	cache0 := chip.Stats()
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	res, err := w.run(seed, budget, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.PeakRSSMB = peakRSSMB()
	if !traced {
		return res, nil
	}
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	cache1 := chip.Stats()
	res.Layers = map[string]float64{
		"chip.capture_hits":   float64(cache1.CaptureHits - cache0.CaptureHits),
		"chip.capture_misses": float64(cache1.CaptureMisses - cache0.CaptureMisses),
		"chip.build_hits":     float64(cache1.BuildHits - cache0.BuildHits),
		"chip.build_misses":   float64(cache1.BuildMisses - cache0.BuildMisses),
		"go.alloc_mb_per_op":  float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1e6 / float64(max(res.Attempted, 1)),
		"go.gc_cpu_fraction":  mem1.GCCPUFraction,
	}
	if err := probeLayers(name, seed, tr, res); err != nil {
		return nil, fmt.Errorf("%s layer probes: %w", name, err)
	}
	if spansPath != "" {
		data, err := json.Marshal(tr.spans)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(spansPath, data, 0o644); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.Report = append(res.Report, fmt.Sprintf("%d spans written to %s", len(tr.spans), spansPath))
	}
	return res, nil
}

// cpuSeconds is the process's CPU time so far, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spawn runs one measuring process of the same binary and decodes its
// result. The process is killed if ctx ends, and always waited for.
func spawn(ctx context.Context, name string, seed int64, budget float64, traced bool, spansPath string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-budget", strconv.FormatFloat(budget, 'g', -1, 64),
		"-trace", trace, "-spans", spansPath)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s process: %w", name, err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s process output: %w", name, err)
	}
	return &res, nil
}

// runUntraced measures the workload in at least minProcs fresh
// processes, more while the measured time is short of seconds, and
// reports the medians of the end-to-end metrics.
func runUntraced(ctx context.Context, name string, w workload, seed int64, seconds float64) (*result, error) {
	var runs []*childResult
	measured := 0.0
	for len(runs) < minProcs || (measured < seconds && len(runs) < maxProcs) {
		r, err := spawn(ctx, name, seed, seconds/minProcs, false, "")
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		measured += r.MeasureS
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setups, rates, rss, units []float64
	for i, r := range runs {
		res.Correct = res.Correct && len(r.Problems) == 0
		res.Attempted += r.Attempted
		res.Failed += r.failedOps()
		setups = append(setups, r.SetupS)
		rates = append(rates, r.opsRate())
		rss = append(rss, r.PeakRSSMB)
		units = append(units, r.UnitMS...)
		fmt.Printf("process %d: setup %.3f s, measured %.3f s (%.3f cpu s), %d attempted, %d failed, %s %.4g, peak rss %.1f MB\n",
			i+1, r.SetupS, r.MeasureS, r.CPUS, r.Attempted, r.failedOps(), w.rateName, rates[i], r.PeakRSSMB)
		for _, p := range r.Problems {
			fmt.Printf("process %d: check failed: %s\n", i+1, p)
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", name)
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["units_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	fmt.Printf("setup_s %.6g s\n", res.Metrics["setup_s"].Value)
	fmt.Printf("units_per_s %.6g 1/s (%s)\n", res.Metrics["units_per_s"].Value, w.rateName)
	fmt.Printf("peak_rss_mb %.6g MB\n", res.Metrics["peak_rss_mb"].Value)
	if len(units) > 0 {
		fmt.Println(timingLine("unit_ms", "ms", units))
	}
	return res, nil
}

// runTraced runs one untraced and one traced process of the workload
// and reports the traced process's per-layer metrics, plus the tracing
// overhead: how much lower the traced rate is than the untraced one.
func runTraced(ctx context.Context, name string, seed int64, seconds float64) (*result, error) {
	plain, err := spawn(ctx, name, seed, seconds/minProcs, false, "")
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spansPath := filepath.Join(filepath.Dir(exe), "spans-"+name+".json")
	tr, err := spawn(ctx, name, seed, seconds/minProcs, true, spansPath)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range []*childResult{plain, tr} {
		res.Correct = res.Correct && len(r.Problems) == 0
		res.Attempted += r.Attempted
		res.Failed += r.failedOps()
		for _, p := range r.Problems {
			fmt.Println("check failed:", p)
		}
	}
	for _, line := range tr.Report {
		fmt.Println(line)
	}
	plainRate, tracedRate := plain.opsRate(), tr.opsRate()
	overhead := 0.0
	if plainRate > 0 {
		overhead = 100 * (plainRate - tracedRate) / plainRate
	}
	fmt.Printf("tracing overhead: untraced %.4g/s, traced %.4g/s, %.2f%% (one process each, so run-to-run noise is included)\n",
		plainRate, tracedRate, overhead)
	tr.Layers["harness.tracing_overhead_pct"] = overhead
	var missing []string
	for _, m := range layerMetrics {
		v, ok := tr.Layers[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s: traced run did not measure %v", name, missing)
	}
	return res, nil
}
