package experiments

import (
	"fmt"
	"strings"

	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/dsp"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// EuclideanRow is one Trojan's detection outcome in Section IV-C.
type EuclideanRow struct {
	Trojan trojan.Kind
	// MeanDistance is the mean Euclidean distance of the Trojan-active
	// traces to the golden centroid in PCA space.
	MeanDistance float64
	// Relative is MeanDistance normalized by the golden population's
	// mean centroid distance (1.0 = indistinguishable from golden),
	// the scale-free quantity to compare against the paper's numbers.
	Relative float64
	// DetectionRate is the fraction of traces whose Eq. (1) verdict
	// fired.
	DetectionRate float64
	// PaperDistance is the published Euclidean distance.
	PaperDistance float64
}

// EuclideanResult reproduces Section IV-C: the Euclidean distances
// between the reference circuit and each Trojan-activated circuit, all
// measured by the on-chip sensor in simulation mode.
type EuclideanResult struct {
	GoldenMeanDistance float64
	Threshold          float64
	Rows               []EuclideanRow
}

// paperEuclidean holds the published distances for Trojans 1-4.
var paperEuclidean = map[trojan.Kind]float64{
	trojan.T1AMLeaker:       0.27,
	trojan.T2LeakageCurrent: 0.25,
	trojan.T3CDMALeaker:     0.05,
	trojan.T4PowerHog:       0.28,
}

// EuclideanSimulation runs the Section IV-C experiment.
func EuclideanSimulation(cfg Config) (*EuclideanResult, error) {
	c, err := infectedChip(cfg)
	if err != nil {
		return nil, err
	}
	ch := sensorOnly(chip.SimulationChannels())

	goldenSet, err := captureSet(c, cfg, ch, cfg.GoldenTraces, cfg.CaptureCycles)
	if err != nil {
		return nil, err
	}
	fp, err := core.BuildFingerprint(goldenSet.Sensor.Traces, cfg.Fingerprint)
	if err != nil {
		return nil, err
	}
	heldOut, err := captureSet(c, cfg, ch, cfg.TestTraces, cfg.CaptureCycles)
	if err != nil {
		return nil, err
	}
	goldenMean := meanCentroidDistance(fp, heldOut.Sensor.Traces)

	res := &EuclideanResult{GoldenMeanDistance: goldenMean, Threshold: fp.Threshold}
	for _, k := range trojan.Kinds() {
		set, err := withTrojan(c, cfg, ch, k, cfg.TestTraces, cfg.CaptureCycles)
		if err != nil {
			return nil, err
		}
		mean := meanCentroidDistance(fp, set.Sensor.Traces)
		res.Rows = append(res.Rows, EuclideanRow{
			Trojan:        k,
			MeanDistance:  mean,
			Relative:      mean / goldenMean,
			DetectionRate: alarmRate(fp, set.Sensor.Traces),
			PaperDistance: paperEuclidean[k],
		})
	}
	return res, nil
}

func meanCentroidDistance(fp *core.Fingerprint, traces []*trace.Trace) float64 {
	ds := make([]float64, len(traces))
	for i, t := range traces {
		ds[i] = fp.CentroidDistance(t)
	}
	return dsp.Mean(ds)
}

// alarmRate is the fraction of traces whose Eq. (1) verdict fires.
func alarmRate(fp *core.Fingerprint, traces []*trace.Trace) float64 {
	alarms := 0
	for _, t := range traces {
		if fp.Evaluate(t).Alarm {
			alarms++
		}
	}
	return float64(alarms) / float64(len(traces))
}

// String renders the Section IV-C comparison.
func (r *EuclideanResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Euclidean distances, on-chip sensor, simulation (Section IV-C)\n")
	fmt.Fprintf(&sb, "golden mean centroid distance: %.4g, Eq.(1) threshold: %.4g\n",
		r.GoldenMeanDistance, r.Threshold)
	fmt.Fprintf(&sb, "%-6s %14s %10s %10s %10s\n", "trojan", "mean dist (V)", "relative", "detect%", "paper")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-6s %14.4g %10.2f %9.0f%% %10.2f\n",
			row.Trojan, row.MeanDistance, row.Relative, 100*row.DetectionRate, row.PaperDistance)
	}
	return sb.String()
}
