package core

import (
	"fmt"
	"sync"
)

// This file is the degradation-aware half of the runtime monitor. The
// paper's monitor assumes the coil and its readout chain stay healthy
// for the life of the device; these pieces make the monitor degrade
// gracefully instead of silently misfiring when they don't:
//
//   - DebounceConfig: an m-of-n sliding-window alarm debouncer, so a
//     single noise burst cannot fire the Trojan alarm.
//   - RebaselineConfig: guarded EWMA re-baselining, so the fingerprint
//     centroid may follow gradual gain/offset drift — but adaptation
//     freezes the moment any alarm evidence enters the window, so a
//     Trojan's step change is never absorbed.
//   - MonitorOptions: bundles both with the ChannelHealth pre-check.

// DebounceConfig is the m-of-n sliding-window debouncer: the Trojan
// alarm is confirmed only when at least M of the last N evaluated
// traces raised a raw detector alarm. The zero value disables
// debouncing (every raw alarm is confirmed immediately, the paper's
// behavior).
type DebounceConfig struct {
	M, N int
}

func (c DebounceConfig) enabled() bool { return c.N > 0 }

func (c DebounceConfig) validate() error {
	if !c.enabled() {
		return nil
	}
	if c.M < 1 || c.M > c.N {
		return fmt.Errorf("core: debounce wants 1 <= M <= N, got %d-of-%d", c.M, c.N)
	}
	return nil
}

// WindowState is the debouncer's view attached to one verdict. The zero
// value (N == 0) means debouncing is off.
type WindowState struct {
	// M and N echo the configuration.
	M, N int
	// Alarms is how many of the last N evaluated traces raw-alarmed.
	Alarms int
	// Confirmed reports Alarms >= M.
	Confirmed bool
}

// debouncer keeps the raw-alarm ring buffer. Health-rejected traces are
// not pushed: they carry no detector evidence either way.
type debouncer struct {
	cfg    DebounceConfig
	ring   []bool
	pos    int
	filled int
	alarms int
}

func newDebouncer(cfg DebounceConfig) *debouncer {
	return &debouncer{cfg: cfg, ring: make([]bool, cfg.N)}
}

func (d *debouncer) push(alarm bool) WindowState {
	if d.filled == len(d.ring) {
		if d.ring[d.pos] {
			d.alarms--
		}
	} else {
		d.filled++
	}
	d.ring[d.pos] = alarm
	if alarm {
		d.alarms++
	}
	d.pos = (d.pos + 1) % len(d.ring)
	return d.state()
}

func (d *debouncer) state() WindowState {
	return WindowState{
		M: d.cfg.M, N: d.cfg.N,
		Alarms:    d.alarms,
		Confirmed: d.alarms >= d.cfg.M,
	}
}

// RebaselineConfig enables slow-drift tracking: after each quiet trace
// the golden score baseline moves toward the observed score by weight
// Alpha (an EWMA). Quiet means the trace passed the health check, raised
// no raw alarm, and the debounce window holds no alarms at all — any
// alarm evidence freezes adaptation, erring toward false alarms rather
// than toward absorbing a Trojan. Alpha 0 (the zero value) disables
// re-baselining, freezing the fingerprint for the device's lifetime.
type RebaselineConfig struct {
	Alpha float64
}

func (c RebaselineConfig) enabled() bool { return c.Alpha > 0 }

func (c RebaselineConfig) validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: rebaseline alpha %g outside [0, 1]", c.Alpha)
	}
	return nil
}

// rebaseliner tracks the EWMA offset between the live score stream and
// the golden centroid. It is updated only from the monitor goroutine;
// the mutex covers concurrent BaselineOffset reads.
type rebaseliner struct {
	mu     sync.Mutex
	alpha  float64
	offset []float64
}

// shift returns score minus the current baseline offset.
func (r *rebaseliner) shift(score []float64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.offset == nil {
		return score
	}
	out := make([]float64, len(score))
	for i := range score {
		out[i] = score[i] - r.offset[i]
	}
	return out
}

// update moves the offset toward (score - centroid) by alpha.
func (r *rebaseliner) update(score, centroid []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.offset == nil {
		r.offset = make([]float64, len(score))
	}
	for i := range r.offset {
		r.offset[i] = (1-r.alpha)*r.offset[i] + r.alpha*(score[i]-centroid[i])
	}
}

func (r *rebaseliner) snapshot() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.offset))
	copy(out, r.offset)
	return out
}

// MonitorOptions configures a monitor beyond the detector pair. The
// zero value reproduces the paper's monitor exactly: no health gate, no
// debouncing, a frozen baseline, confidence pinned at 1.
type MonitorOptions struct {
	// Buffer is the submit/verdict channel depth.
	Buffer int
	// Health, when set, pre-checks every trace and rejects unusable ones
	// before either detector sees them.
	Health *ChannelHealth
	// Debounce is the m-of-n confirmation window.
	Debounce DebounceConfig
	// Rebaseline is the guarded slow-drift tracker.
	Rebaseline RebaselineConfig
}

// HardenedOptions returns the degradation-aware tuning used by the
// experiments: the given health gate, a 2-of-4 debounce window, and
// alpha 0.5 guarded re-baselining. The alpha is deliberately fast: the
// EWMA's tracking lag is roughly drift-slope/alpha, and a lag that
// reaches the Eq. (1) threshold starts an alarm run that freezes
// adaptation for good (the freeze guard cannot tell tracked-too-slowly
// drift from a Trojan). The guard makes a fast alpha safe — adaptation
// only ever runs on fully quiet windows, so a Trojan's step never
// feeds the EWMA no matter how fast it moves.
func HardenedOptions(h *ChannelHealth) MonitorOptions {
	return MonitorOptions{
		Buffer:     8,
		Health:     h,
		Debounce:   DebounceConfig{M: 2, N: 4},
		Rebaseline: RebaselineConfig{Alpha: 0.5},
	}
}
