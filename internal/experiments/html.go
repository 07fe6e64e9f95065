package experiments

import (
	"fmt"
	"io"

	"emtrust/internal/report"
	"emtrust/internal/trojan"
)

// htmlSection is implemented by the results that own a section of the
// HTML report.
type htmlSection interface {
	addHTML(r *report.Report)
}

// WriteHTMLReport renders experiment results as one self-contained HTML
// page with the paper's figures as inline SVG: each result that owns a
// page section adds it, in argument order, and the others are skipped.
// It runs no experiment.
func WriteHTMLReport(w io.Writer, results ...fmt.Stringer) error {
	r := report.New("emtrust — Runtime EM Trojan Detection, paper reproduction")
	for _, res := range results {
		if s, ok := res.(htmlSection); ok {
			s.addHTML(r)
		}
	}
	return r.WriteHTML(w)
}

// addHTML renders Table I: the generated design's gate counts against
// the published shares.
func (res *Table1Result) addHTML(r *report.Report) {
	r.AddHeading("Table I — Trojan sizes", "Gate counts of the generated design versus the published shares.")
	rows := [][]string{{"AES", fmt.Sprint(res.AESGateCount), "100%", "100%"}}
	for _, row := range res.Rows {
		gates := fmt.Sprint(row.GateCount)
		if row.GateCount < 0 {
			gates = "N/A"
		}
		rows = append(rows, []string{row.Name, gates,
			fmt.Sprintf("%.3f%%", row.Percentage), fmt.Sprintf("%.3f%%", row.PaperPct)})
	}
	r.AddTable([]string{"circuit", "gates", "share (ours)", "share (paper)"}, rows)
}

// addHTML renders one mode's SNR comparison.
func (res *SNRResult) addHTML(r *report.Report) {
	r.AddHeading(fmt.Sprintf("SNR — %s mode", res.Mode), "")
	r.AddTable([]string{"channel", "ours (dB)", "paper (dB)"}, [][]string{
		{"on-chip sensor", fmt.Sprintf("%.2f", res.SensorSNRdB), fmt.Sprintf("%.2f", res.PaperSensorSNRdB)},
		{"external probe", fmt.Sprintf("%.2f", res.ProbeSNRdB), fmt.Sprintf("%.2f", res.PaperProbeSNRdB)},
	})
}

// addHTML renders one channel's row of Figure 6 histograms.
func (res *HistogramsResult) addHTML(r *report.Report) {
	panels := "(a)-(d)"
	if res.Channel == "on-chip sensor" {
		panels = "(e)-(h)"
	}
	r.AddHeading(fmt.Sprintf("Figure 6%s — %s", panels, res.Channel),
		"Red: golden circuit. Blue: Trojan activated. Euclidean distance histograms.")
	for _, p := range res.Panels {
		r.AddBars(
			fmt.Sprintf("%v — overlap %.2f, TVLA |t| %.1f", p.Trojan, p.Overlap, abs(p.TStat)),
			"Euclidean distance (V)", p.Golden.Min, p.Golden.Max,
			report.Series{Name: "golden", Values: counts(p.Golden.Counts)},
			report.Series{Name: p.Trojan.String() + " active", Values: counts(p.Active.Counts)},
		)
	}
}

// addHTML plots the dormant and triggering sensor spectra up to the
// third clock multiple (the Figure 4 panel).
func (res *A2SpectrumResult) addHTML(r *report.Report) {
	limit := res.offSpec.Bin(3 * res.ClockHz)
	r.AddHeading("Figure 4 — A2 Trojan in the frequency domain",
		"Blue: dormant. Red: triggering (fast-flipping trigger raises the clock harmonic).")
	r.AddLines("sensor spectrum", "frequency (Hz)", 0, res.offSpec.Frequency(limit), true,
		report.Series{Name: "triggering", Color: "#c0392b", Values: res.onSpec.Amplitude[:limit]},
		report.Series{Name: "dormant", Color: "#2455a4", Values: res.offSpec.Amplitude[:limit]},
	)
}

// addHTML renders the generated-Trojan campaign: the pooled ROC curve
// over the Eq. (1) threshold margin, the detection tables along each
// swept axis, and the searcher comparison.
func (res *CampaignResult) addHTML(r *report.Report) {
	r.AddHeading(fmt.Sprintf("Generated Trojan campaign — %d members (extension)", res.Members),
		fmt.Sprintf("Automatically synthesized rare-trigger Trojans (AND of k rare nets, XOR payload plus a toggling "+
			"payload bank) swept over trigger size, trigger rarity, and placement. Campaign hash %016x; "+
			"regeneration from the same seed matched: %v.", res.Hash, res.Reproducible))

	tpr := report.Series{Name: "TPR"}
	fpr := report.Series{Name: "FPR"}
	for _, p := range res.ROC {
		tpr.Values = append(tpr.Values, 100*p.TPR)
		fpr.Values = append(fpr.Values, 100*p.FPR)
	}
	r.AddLines("Pooled detection/false-alarm rates vs Eq. (1) threshold margin (%)",
		"threshold margin", res.ROC[0].Margin, res.ROC[len(res.ROC)-1].Margin, false, tpr, fpr)

	groupTable := func(title string, groups []CampaignGroup) {
		rows := make([][]string, 0, len(groups))
		for _, g := range groups {
			rows = append(rows, []string{g.Label, fmt.Sprint(g.Members),
				fmt.Sprintf("%.0f%%", 100*g.Detection), fmt.Sprintf("%.0f%%", 100*g.FalseAlarm),
				fmt.Sprintf("%.0f%%", 100*g.Hardened), fmt.Sprintf("%.0f%%", 100*g.Array)})
		}
		r.AddTable([]string{title, "members", "detect", "false+", "hardened", "array"}, rows)
	}
	groupTable("trigger size", res.ByK)
	groupTable("rarity bucket", res.ByRarity)
	groupTable("tile quadrant", res.ByTile)

	rows := make([][]string, 0, len(res.Search))
	for _, s := range res.Search {
		rows = append(rows, []string{s.Searcher,
			fmt.Sprintf("%.1f%%", 100*s.MeanFrac),
			fmt.Sprintf("%d/%d", s.FullTriggers, res.SearchMembers)})
	}
	r.AddTable([]string{
		fmt.Sprintf("searcher (%d members, %d evals each)", res.SearchMembers, res.SearchBudget),
		"mean coverage", "full triggers"}, rows)
}

// addHTML renders the sensor-array sweep: the size/budget summary
// tables and one die heatmap per threat on the 4×4 array, with the true
// Trojan cell named next to the predicted one.
func (res *LocalizationResult) addHTML(r *report.Report) {
	r.AddHeading("Sensor array — golden-model-free localization (extension)",
		"An N×N array of small coils replaces the whole-die spiral. Each coil is scored against its "+
			"spatial neighbors and its own history — no golden chip — and the per-coil anomaly scores "+
			"form a die heatmap that names the Trojan's tile.")
	rows := make([][]string, 0, len(res.Grids))
	for _, g := range res.Grids {
		name := fmt.Sprintf("%dx%d", g.NX, g.NY)
		if g.NX == 1 {
			name += " (whole-die coil)"
		}
		rows = append(rows, []string{name, fmt.Sprint(g.Windows),
			fmt.Sprintf("%d/%d", g.Detected, len(g.Threats)),
			fmt.Sprintf("%d/%d", g.Localized, len(g.Threats))})
	}
	r.AddTable([]string{"array", "windows/frame", "detected", "localized"}, rows)
	if four := res.Grid(4); four != nil {
		for _, thr := range four.Threats {
			tx, ty := thr.TrueCell%four.NX, thr.TrueCell/four.NX
			r.AddHeatmap(
				fmt.Sprintf("%s — mean anomaly z per cell (true cell (%d,%d), tile dist %d)",
					thr.Name, tx, ty, thr.TileDist),
				four.NX, four.NY, thr.Heat)
		}
	}
	rows = rows[:0]
	for _, g := range res.Budget {
		rows = append(rows, []string{fmt.Sprint(g.Channels), fmt.Sprint(g.Windows),
			fmt.Sprintf("%d/%d", g.Detected, len(g.Threats)),
			fmt.Sprintf("%d/%d", g.Localized, len(g.Threats))})
	}
	r.AddTable([]string{"ADC channels (4x4)", "windows/frame", "detected", "localized"}, rows)
}

// addHTML renders the fault-injection sweep: the false-alarm curves of
// both monitors against severity, and the per-severity detection table.
func (res *DegradationResult) addHTML(r *report.Report) {
	r.AddHeading("Degradation — acquisition-chain faults (extension)",
		"Drift, bursts, glitches, jitter and clipping injected between coil and analysis. "+
			"Naive is the paper's monitor; hardened adds the health gate, debouncing and guarded re-baselining.")
	var sevs []float64
	naive := report.Series{Name: "naive false alarms", Color: "#c0392b"}
	hard := report.Series{Name: "hardened false alarms", Color: "#2455a4"}
	rej := report.Series{Name: "rejected traces", Color: "#1e8449"}
	rows := make([][]string, 0, len(res.Points))
	for _, p := range res.Points {
		sevs = append(sevs, p.Severity)
		naive.Values = append(naive.Values, 100*p.FalseAlarmNaive)
		hard.Values = append(hard.Values, 100*p.FalseAlarmHardened)
		rej.Values = append(rej.Values, 100*p.Rejected)
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.Severity),
			fmt.Sprintf("%.0f%%", 100*p.Rejected),
			fmt.Sprintf("%.0f%% / %.0f%%", 100*p.FalseAlarmNaive, 100*p.FalseAlarmHardened),
			fmt.Sprintf("%.0f%% / %.0f%%", 100*p.DetectionNaive[trojan.T1AMLeaker], 100*p.DetectionHardened[trojan.T1AMLeaker]),
			fmt.Sprintf("%.0f%% / %.0f%%", 100*p.DetectionNaive[trojan.T2LeakageCurrent], 100*p.DetectionHardened[trojan.T2LeakageCurrent]),
			fmt.Sprintf("%.0f%% / %.0f%%", 100*p.DetectionNaive[trojan.T3CDMALeaker], 100*p.DetectionHardened[trojan.T3CDMALeaker]),
			fmt.Sprintf("%.0f%% / %.0f%%", 100*p.DetectionNaive[trojan.T4PowerHog], 100*p.DetectionHardened[trojan.T4PowerHog]),
			fmt.Sprintf("%.0f%% / %.0f%%", 100*p.A2Naive, 100*p.A2Hardened),
		})
	}
	if len(sevs) > 1 {
		r.AddLines("false-alarm rate vs severity (%)", "severity",
			sevs[0], sevs[len(sevs)-1], false, naive, hard, rej)
	}
	r.AddTable([]string{"severity", "rejected", "false+ n/h", "T1 n/h", "T2 n/h", "T3 n/h", "T4 n/h", "A2 n/h"}, rows)
	r.AddPre(fmt.Sprintf("freeze study: Trojan activates at trace %d under continuing drift;\nconfirmed-alarm persistence over the late activation: %.0f%%",
		res.FreezeActivation, 100*res.FreezePersistence))
}

// addHTML renders the population-scale monitoring run: the service
// counters and the FDR alarm list scored against ground truth.
func (res *FleetResult) addHTML(r *report.Report) {
	r.AddHeading("Fleet monitoring — population-scale trust evaluation (extension)",
		"A sharded service monitors a fleet of process-variation siblings, each aging through its own "+
			"degradation profile. Per-die guarded Holt tracking discounts drift, the cross-die reference "+
			"cancels the fleet common mode, and Benjamini-Hochberg ranking bounds the false-discovery "+
			"fraction of the alarm list.")
	r.AddTable([]string{"dies", "infected", "rounds", "verdicts", "verdicts/s", "shed", "quarantined", "alarms", "hits", "false"},
		[][]string{{
			fmt.Sprint(res.Dies), fmt.Sprint(res.Infected), fmt.Sprint(res.Rounds),
			fmt.Sprint(res.Verdicts), fmt.Sprintf("%.0f", res.VerdictsPerSec),
			fmt.Sprint(res.Dropped), fmt.Sprint(res.Quarantined),
			fmt.Sprint(len(res.Alarms)), fmt.Sprint(res.Hits), fmt.Sprint(res.Falses),
		}})
	rows := make([][]string, 0, len(res.Alarms))
	for _, a := range res.Alarms {
		rows = append(rows, []string{
			fmt.Sprint(a.Die), fmt.Sprintf("%.1f", a.Score), fmt.Sprintf("%.3g", a.P),
			fmt.Sprintf("%d/%d", a.Confirmed, a.Verdicts),
		})
	}
	if len(rows) > 0 {
		r.AddTable([]string{"die", "score", "p", "confirmed"}, rows)
	}
}

func counts(c []int) []float64 {
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = float64(v)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
