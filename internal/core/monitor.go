package core

import (
	"fmt"
	"sync"

	"emtrust/internal/trace"
)

// Verdict combines both detectors' views of one trace, plus the
// hardening context: the channel-health pre-check, the debounce window,
// and a confidence score that replaces raw booleans when the channel is
// degraded.
type Verdict struct {
	Seq      int
	Time     TimeVerdict
	Spectral SpectralVerdict
	// Health is the pre-check outcome; the zero value means accepted
	// (or unchecked, on a monitor without a health gate).
	Health HealthVerdict
	// Window is the debouncer's m-of-n view; N == 0 when debouncing is
	// off.
	Window WindowState
	// Confidence in this verdict, in [0, 1]: 1 on a pristine channel,
	// lower as the channel degrades, 0 for a rejected trace.
	Confidence float64
}

// Alarm reports whether either detector raw-fired on this trace.
func (v Verdict) Alarm() bool { return v.Time.Alarm || v.Spectral.Alarm }

// Confirmed reports the debounced Trojan alarm: with debouncing enabled
// it requires M raw alarms in the last N traces; without it, it equals
// Alarm(). A health-rejected trace never confirms — a dying sensor is a
// maintenance event, not a Trojan detection.
func (v Verdict) Confirmed() bool {
	if v.Health.Rejected {
		return false
	}
	if v.Window.N > 0 {
		return v.Window.Confirmed
	}
	return v.Alarm()
}

// String renders a one-line monitor log entry.
func (v Verdict) String() string {
	status := "ok"
	switch {
	case v.Health.Rejected:
		status = "REJECT(" + v.Health.Reason + ")"
	case v.Confirmed():
		status = "ALARM"
	case v.Alarm():
		status = "alarm?" // raw hit, not yet confirmed by the window
	}
	s := fmt.Sprintf("trace %d: %s distance=%.4g threshold=%.4g spots=%d",
		v.Seq, status, v.Time.Distance, v.Time.Threshold, len(v.Spectral.Spots))
	if v.Window.N > 0 {
		s += fmt.Sprintf(" window=%d/%d confidence=%.2f", v.Window.Alarms, v.Window.N, v.Confidence)
	}
	return s
}

// Monitor is the runtime trust evaluation loop of Figure 1: traces from
// the on-chip sensor stream in, verdicts stream out, and the analysis
// runs in parallel with the circuit's normal execution (no performance
// degradation on the monitored chip). One goroutine runs Evaluator.Eval
// on each trace in submission order, so the stateful hardening stages
// (health gate, debouncer, re-baseliner) see the stream exactly as
// submitted.
type Monitor struct {
	ev *Evaluator

	in      chan *trace.Trace
	out     chan Verdict
	wg      sync.WaitGroup
	history struct {
		sync.Mutex
		alarms    int
		total     int
		rejected  int
		confirmed int
	}
}

// NewMonitor builds a runtime monitor from fitted detectors. Either
// detector may be nil to run the other alone. See MonitorOptions; the
// zero value reproduces the paper's monitor.
func NewMonitor(fp *Fingerprint, sd *SpectralDetector, opts MonitorOptions) (*Monitor, error) {
	ev, err := NewEvaluator(fp, sd, opts)
	if err != nil {
		return nil, err
	}
	buffer := opts.Buffer
	if buffer < 0 {
		buffer = 0
	}
	m := &Monitor{
		ev:  ev,
		in:  make(chan *trace.Trace, buffer),
		out: make(chan Verdict, buffer),
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer close(m.out)
		for t := range m.in {
			v := m.ev.Eval(t)
			m.history.Lock()
			m.history.total++
			if v.Alarm() {
				m.history.alarms++
			}
			if v.Health.Rejected {
				m.history.rejected++
			}
			if v.Confirmed() {
				m.history.confirmed++
			}
			m.history.Unlock()
			m.out <- v
		}
	}()
	return m, nil
}

// Submit queues a trace for evaluation. It blocks when the buffer is
// full (backpressure instead of dropped traces).
func (m *Monitor) Submit(t *trace.Trace) { m.in <- t }

// Verdicts returns the output stream. It is closed after Close.
func (m *Monitor) Verdicts() <-chan Verdict { return m.out }

// Close stops accepting traces and waits for in-flight evaluations.
func (m *Monitor) Close() {
	close(m.in)
	m.wg.Wait()
}

// Stats returns the running totals: traces evaluated and raw detector
// alarms.
func (m *Monitor) Stats() (total, alarms int) {
	m.history.Lock()
	defer m.history.Unlock()
	return m.history.total, m.history.alarms
}

// HardenedStats returns the hardening counters: health-rejected traces
// and debounce-confirmed alarms.
func (m *Monitor) HardenedStats() (rejected, confirmed int) {
	m.history.Lock()
	defer m.history.Unlock()
	return m.history.rejected, m.history.confirmed
}

// BaselineOffset returns a copy of the current drift-tracking offset in
// score space (nil when re-baselining is off or nothing has been
// adapted yet). Its norm is the amount of slow drift the monitor has
// absorbed instead of alarming on.
func (m *Monitor) BaselineOffset() []float64 { return m.ev.BaselineOffset() }
