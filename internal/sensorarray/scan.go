package sensorarray

import (
	"fmt"

	"emtrust/internal/chip"
	"emtrust/internal/dsp"
	"emtrust/internal/parallel"
	"emtrust/internal/trace"
)

// The mux sequencer: the real array shares a bounded number of ADC
// channels, so a full frame (one reading per coil) takes
// ceil(NumCoils/Channels) capture windows, each digitizing one coil
// group while the chip keeps running. The simulation honors that —
// coils in different windows see different (consecutive) chip activity
// windows, exactly the state skew a hardware sequencer would produce —
// and the channel budget becomes a measurable latency/coverage
// tradeoff in the localization experiment.

// Windows returns the number of capture windows one full array frame
// needs under the channel budget.
func (a *Array) Windows() int {
	k := a.NumCoils()
	ch := a.Cfg.Channels
	if ch <= 0 || ch >= k {
		return 1
	}
	return (k + ch - 1) / ch
}

// WindowCoils returns the cell indices digitized in window w of a frame.
func (a *Array) WindowCoils(w int) []int {
	k := a.NumCoils()
	ch := a.Cfg.Channels
	if ch <= 0 || ch >= k {
		ch = k
	}
	lo := w * ch
	hi := lo + ch
	if lo >= k {
		return nil
	}
	if hi > k {
		hi = k
	}
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// Frame is one full scan of the array: one measured trace per coil, plus
// which mux window each coil was digitized in.
type Frame struct {
	Traces []*trace.Trace
	// Window[k] is the capture window cell k was read in; coils in
	// different windows saw different chip activity windows.
	Window []int
	// Windows is the frame's total window count (the frame latency in
	// capture windows).
	Windows int
	Dt      float64
}

// captureFunc produces the chip activity for one mux window. It is
// called once per window, serially and in window order, so stateful
// workloads evolve across windows the way they would under a hardware
// sequencer.
type captureFunc func(w int) (*chip.Capture, error)

// scanFrame captures one full array frame: for each mux window it runs
// one chip capture, then fans the window's coil group out over the
// worker pool — per-coil emf synthesis plus acquisition with a private
// (stream, cell)-derived generator. Each task writes only its own cell
// index, so the frame is bit-identical for any worker count. The emf
// synthesis completes before the next window's capture because
// Capture.Tiles alias the recorder's buffers.
func (a *Array) scanFrame(c *chip.Chip, ch trace.Channel, capture captureFunc) (*Frame, error) {
	k := a.NumCoils()
	stream := c.NextStream()
	f := &Frame{
		Traces:  make([]*trace.Trace, k),
		Window:  make([]int, k),
		Windows: a.Windows(),
	}
	for w := 0; w < f.Windows; w++ {
		cap, err := capture(w)
		if err != nil {
			return nil, fmt.Errorf("sensorarray: window %d: %w", w, err)
		}
		coils := a.WindowCoils(w)
		emfs, err := a.windowEMFs(cap, coils)
		if err != nil {
			return nil, err
		}
		err = parallel.For(len(coils), func(i int) error {
			cell := coils[i]
			f.Traces[cell] = ch.Acquire(emfs[i], cap.Dt, c.SplitRand(stream, uint64(cell)))
			f.Window[cell] = w
			return nil
		})
		if err != nil {
			return nil, err
		}
		f.Dt = cap.Dt
	}
	return f, nil
}

// windowEMFs synthesizes (or reuses from the array's emf slot) the emf
// waveform of each listed coil for one capture. The slot holds the
// per-coil waveforms of the last capture scanned: a dormant chip hands
// every mux window its replayed fixed-point capture, the same *Capture,
// so later windows skip the synthesis. Holding that pointer keeps its
// memory from being reused by another capture. Slot access is
// mutex-guarded; the parallel fan-out writes only a window-local slice,
// so concurrent frames on one array stay race-free.
func (a *Array) windowEMFs(cap *chip.Capture, coils []int) ([][]float64, error) {
	a.emfMu.Lock()
	if a.emfCap != cap {
		a.emfCap, a.emfs = cap, make([][]float64, a.NumCoils())
	}
	slot := a.emfs
	emfs := make([][]float64, len(coils))
	var missing []int
	for i, cell := range coils {
		if emfs[i] = slot[cell]; emfs[i] == nil {
			missing = append(missing, i)
		}
	}
	a.emfMu.Unlock()
	err := parallel.For(len(missing), func(j int) error {
		i := missing[j]
		emfs[i] = a.Couplings[coils[i]].EMF(cap.Tiles, cap.Dt)
		return nil
	})
	if err != nil {
		return nil, err
	}
	a.emfMu.Lock()
	for _, i := range missing {
		if slot[coils[i]] == nil {
			slot[coils[i]] = emfs[i]
		}
	}
	a.emfMu.Unlock()
	return emfs, nil
}

// ScanEncryption captures a frame of the standard fixed-stimulus
// encryption workload: every mux window runs one encryption of pt under
// key.
func (a *Array) ScanEncryption(c *chip.Chip, ch trace.Channel, pt, key []byte, cycles int) (*Frame, error) {
	return a.scanFrame(c, ch, func(int) (*chip.Capture, error) {
		return c.CapturePT(pt, key, cycles)
	})
}

// RMS returns each coil's broadband RMS emission, the scalar the
// self-referencing detector compares across the array (the array
// counterpart of the paper's amplitude statistics).
func (f *Frame) RMS() []float64 {
	out := make([]float64, len(f.Traces))
	for k, t := range f.Traces {
		out[k] = dsp.RMS(t.Samples)
	}
	return out
}
