// Package emtrust is a runtime hardware-Trojan detection framework built
// around an on-chip electromagnetic sensor, reproducing "Runtime Trust
// Evaluation and Hardware Trojan Detection Using On-Chip EM Sensors"
// (He, Guo, Ma, Liu, Zhao, Jin — DAC 2020).
//
// The package is a facade over the implementation packages:
//
//   - a virtual chip: a gate-level AES-128 (~21 k cells) with the paper's
//     four digital Trojans and an A2-style analog Trojan, floorplanned
//     under a spiral EM sensor on the top metal layer, with an external
//     probe for comparison (internal/chip and below);
//   - the trust evaluation framework: golden fingerprinting (segment
//     energies, PCA, Euclidean distance with the Eq. (1) threshold), the
//     Section III-E spectral detector, and a streaming runtime monitor
//     (internal/core);
//   - the experiment harness regenerating every table and figure of the
//     paper (internal/experiments, cmd/experiments).
//
// # Quick start
//
//	dev, _ := emtrust.NewDevice(emtrust.DeviceOptions{})
//	golden, _ := dev.CollectGolden(50)
//	det, _ := emtrust.Fit(golden)
//	tr, _ := dev.CaptureTrace()
//	verdict := det.Evaluate(tr)
//
// See examples/ for complete programs.
package emtrust

import (
	"fmt"

	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/frand"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// Re-exported core types. Aliases keep the implementation in internal
// packages while giving users public names for everything the API
// returns.
type (
	// Trace is one sampled EM measurement.
	Trace = trace.Trace
	// Fingerprint is the fitted golden time-domain model.
	Fingerprint = core.Fingerprint
	// SpectralDetector is the fitted golden frequency-domain model.
	SpectralDetector = core.SpectralDetector
	// Monitor streams traces through both detectors at runtime.
	Monitor = core.Monitor
	// Verdict is one monitored trace's outcome.
	Verdict = core.Verdict
	// TrojanKind identifies one of the paper's four digital Trojans.
	TrojanKind = trojan.Kind
	// ChipConfig exposes every knob of the virtual chip.
	ChipConfig = chip.Config
)

// The four digital Trojans of the paper's Table I.
const (
	T1AMLeaker       = trojan.T1AMLeaker
	T2LeakageCurrent = trojan.T2LeakageCurrent
	T3CDMALeaker     = trojan.T3CDMALeaker
	T4PowerHog       = trojan.T4PowerHog
)

// Trojans lists the four digital Trojans in Table I order.
func Trojans() []TrojanKind { return trojan.Kinds() }

// DeviceOptions configures a virtual device.
type DeviceOptions struct {
	// Golden builds the Trojan-free reference chip instead of the
	// infected one.
	Golden bool
	// Seed drives all randomness (plaintexts and measurement noise);
	// zero means seed 1.
	Seed int64
	// Cycles is the capture window per trace; zero means 32.
	Cycles int
	// Measurement selects the Section V acquisition (oscilloscope ADC
	// plus lab interference) instead of the Section IV simulation
	// channels.
	Measurement bool
	// Key and Plaintext fix the workload; nil selects the FIPS-197
	// vectors. Fingerprinting assumes a repeatable stimulus.
	Key, Plaintext []byte
	// Chip overrides the full chip configuration; nil uses defaults.
	Chip *ChipConfig
}

// Device is a virtual chip with its measurement channels: the object a
// deployment would replace with a real sensor front-end.
type Device struct {
	chip     *chip.Chip
	channels chip.Channels
	rng      *frand.Rand // every acquisition's noise, in capture order
	cycles   int
	key, pt  []byte
}

// NewDevice builds and floorplans a virtual chip.
func NewDevice(opts DeviceOptions) (*Device, error) {
	cfg := chip.DefaultConfig()
	if opts.Chip != nil {
		cfg = *opts.Chip
	}
	if opts.Golden {
		cfg.WithTrojans = false
		cfg.WithA2 = false
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	c, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.WithTrojans {
		if err := c.DeactivateAll(); err != nil {
			return nil, err
		}
	}
	c.EnableA2(false)
	d := &Device{
		chip:     c,
		channels: chip.SimulationChannels(),
		rng:      frand.NewRand(cfg.Seed),
		cycles:   opts.Cycles,
		key:      opts.Key,
		pt:       opts.Plaintext,
	}
	if opts.Measurement {
		d.channels = chip.MeasurementChannels()
	}
	if d.cycles == 0 {
		d.cycles = 32
	}
	if d.key == nil {
		d.key = []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	}
	if d.pt == nil {
		d.pt = []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
	}
	return d, nil
}

// Chip exposes the underlying virtual chip for advanced use (layout,
// netlist statistics, raw captures).
func (d *Device) Chip() *chip.Chip { return d.chip }

// SetTrojan activates or deactivates one of the digital Trojans.
func (d *Device) SetTrojan(k TrojanKind, on bool) error { return d.chip.SetTrojan(k, on) }

// EnableA2 arms (or disarms) the analog Trojan's charge pump.
func (d *Device) EnableA2(on bool) { d.chip.EnableA2(on) }

// CaptureTrace measures one on-chip sensor trace of the fixed workload.
func (d *Device) CaptureTrace() (*Trace, error) {
	cap, err := d.chip.CapturePT(d.pt, d.key, d.cycles)
	if err != nil {
		return nil, err
	}
	s, _ := d.channels.Acquire(cap, d.rng)
	return s, nil
}

// CaptureBoth measures one trace on both channels (sensor, probe).
func (d *Device) CaptureBoth() (sensor, probe *Trace, err error) {
	cap, err := d.chip.CapturePT(d.pt, d.key, d.cycles)
	if err != nil {
		return nil, nil, err
	}
	sensor, probe = d.channels.Acquire(cap, d.rng)
	return sensor, probe, nil
}

// CaptureIdle measures a trace with the AES idle (only the clock tree
// and any active Trojans radiate), over the given number of cycles.
func (d *Device) CaptureIdle(cycles int) (*Trace, error) {
	cap, err := d.chip.CaptureIdle(cycles)
	if err != nil {
		return nil, err
	}
	s, _ := d.channels.Acquire(cap, d.rng)
	return s, nil
}

// Listen captures an idle window from the on-chip coil through a
// receiver front-end with the given noise floor (volts RMS). A
// narrowband radio receiver tuned to one carrier tolerates far less
// noise than the broadband monitoring channel, which is how an attacker
// (or an auditor, as in examples/keyleak) demodulates the AM Trojan's
// covert transmission.
func (d *Device) Listen(cycles int, noiseRMS float64) (*Trace, error) {
	cap, err := d.chip.CaptureIdle(cycles)
	if err != nil {
		return nil, err
	}
	rx := chip.Channels{
		Sensor: trace.SimulationChannel(noiseRMS),
		Probe:  trace.SimulationChannel(noiseRMS),
	}
	s, _ := rx.Acquire(cap, d.rng)
	return s, nil
}

// CaptureIdleBoth measures an idle-chip trace on both channels.
func (d *Device) CaptureIdleBoth(cycles int) (sensor, probe *Trace, err error) {
	cap, err := d.chip.CaptureIdle(cycles)
	if err != nil {
		return nil, nil, err
	}
	sensor, probe = d.channels.Acquire(cap, d.rng)
	return sensor, probe, nil
}

// CollectGolden captures n golden traces for fitting (none for n == 0;
// a negative n is an error). The caller is responsible for the chip
// actually being Trojan-free or dormant.
func (d *Device) CollectGolden(n int) ([]*Trace, error) {
	if n < 0 {
		return nil, fmt.Errorf("emtrust: cannot collect %d golden traces", n)
	}
	out := make([]*Trace, n)
	for i := range out {
		t, err := d.CaptureTrace()
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// Detector bundles the fitted time-domain and frequency-domain models.
type Detector struct {
	Fingerprint *Fingerprint
	Spectral    *SpectralDetector
}

// Fit fits both detectors from golden traces with default
// configurations.
func Fit(golden []*Trace) (*Detector, error) {
	fp, err := core.BuildFingerprint(golden, core.DefaultFingerprintConfig())
	if err != nil {
		return nil, err
	}
	sd, err := core.BuildSpectralDetector(golden, core.DefaultSpectralConfig())
	if err != nil {
		return nil, err
	}
	return &Detector{Fingerprint: fp, Spectral: sd}, nil
}

// Evaluate runs both detectors on one trace.
func (det *Detector) Evaluate(t *Trace) Verdict {
	return Verdict{
		Time:     det.Fingerprint.Evaluate(t),
		Spectral: det.Spectral.Evaluate(t),
	}
}

// NewMonitor starts a runtime monitor over the fitted detectors.
func (det *Detector) NewMonitor(buffer int) (*Monitor, error) {
	return core.NewMonitor(det.Fingerprint, det.Spectral, core.MonitorOptions{Buffer: buffer})
}

// Describe returns a short human-readable summary of a Trojan.
func Describe(k TrojanKind) string {
	return fmt.Sprintf("%v: %s", k, k.Description())
}
