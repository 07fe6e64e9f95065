// Package chip assembles the full virtual device of the paper's
// experiments: the gate-level AES-128, the four digital Trojans, the
// A2-style analog Trojan, a floorplan with the on-chip spiral sensor on
// the top metal layer, the external probe above the package, and the
// switching-current to EM-emf pipeline. It is the stand-in for the
// fabricated 180 nm chip of Section V.
package chip

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"emtrust/internal/aes"
	"emtrust/internal/analog"
	"emtrust/internal/emfield"
	"emtrust/internal/frand"
	"emtrust/internal/layout"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
	"emtrust/internal/power"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// Inserter injects extra logic into the chip's netlist after the AES
// core and the clock divider (a campaign-generated Trojan, an
// instrumentation block). Implementations must be deterministic — the
// same inserter value must always build the same cells — and
// comparable, ideally pointer types: chip builds are memoized in a map
// keyed on Config, so the dynamic value participates in map-key
// comparison (identity, for a pointer). New returns an error for a
// value that cannot be compared.
type Inserter interface {
	// InsertName tags the built netlist (and the build-cache key); two
	// inserters that build different logic must report different names.
	InsertName() string
	// Insert appends logic to the partially built design, a private
	// clone of the base design. The base's cells and nets are already
	// in place, so the inserter can reference and rewire them by the
	// ids of the golden build.
	Insert(b *netlist.Builder) error
}

// Config describes one chip build.
type Config struct {
	// WithTrojans selects the infected chip (the golden reference chip
	// carries only the AES and the clock divider).
	WithTrojans bool
	// WithA2 adds the analog Trojan watching the clock-division wire.
	WithA2 bool
	// Insert, when non-nil, injects extra logic after the base design is
	// generated (see Inserter). Campaign chips combine it with
	// WithTrojans=false: the only malicious logic is the inserted one.
	Insert Inserter

	Trojan trojan.Config
	A2     analog.A2Config
	Power  power.Config
	Layout layout.Config

	// Sensor geometry: nested-rectangle spiral turns on the top metal
	// layer at SpiralZ above the devices (the 1×1 emfield.SpiralGrid).
	// New rejects a turn count below 1 here and in ProbeTurns.
	SpiralTurns int
	SpiralZ     float64
	// External probe geometry: same-diameter turn stack at ProbeZ.
	ProbeRadius float64
	ProbeTurns  int
	ProbeZ      float64
	ProbePitch  float64
	// TileLoopArea is the effective supply-loop area of one tile's
	// switching current (the dipole strength per ampere).
	TileLoopArea float64
	// Quad is the boundary-integral resolution for coupling
	// precomputation.
	Quad int

	// Seed derives the per-trace generators (SubSeed, SplitRand) so
	// experiments are reproducible. The chip itself holds no generator.
	Seed int64
}

// DefaultConfig returns the experiment configuration: 12 MHz clock,
// 180 nm-style layout, a 10-turn spiral 5 um above the devices, and a
// LANGER-style probe 100 um above the die (the paper's package
// thickness).
func DefaultConfig() Config {
	return Config{
		WithTrojans:  true,
		WithA2:       true,
		Trojan:       trojan.DefaultConfig(),
		A2:           analog.DefaultA2Config(),
		Power:        power.DefaultConfig(),
		Layout:       layout.DefaultConfig(),
		SpiralTurns:  10,
		SpiralZ:      5e-6,
		ProbeRadius:  0.5e-3,
		ProbeTurns:   8,
		ProbeZ:       100e-6,
		ProbePitch:   20e-6,
		TileLoopArea: 25e-12,
		Quad:         96,
		Seed:         1,
	}
}

// Chip is one built and placed device with its measurement coils.
type Chip struct {
	cfg Config
	n   *netlist.Netlist
	sim *logic.Simulator
	fp  *layout.Floorplan
	rec *power.Recorder
	// design is the capture cache's design id (see captureKey).
	design uint64

	sensor *emfield.Coupling

	trojans map[trojan.Kind]*trojan.Instance
	t2Tile  int // tile of the T2 crowbar cells

	a2        *analog.A2
	a2Victim  netlist.Net
	a2Tile    int
	a2Enabled bool

	// streams counts the per-trace seed streams handed out by NextStream.
	// It is a shared pointer so clones and stuck-at variants draw from the
	// same sequence as the chip they derive from.
	streams *atomic.Uint64

	// Lazy batch-capture machinery (batch.go): the wide engine, its
	// pooled flux lane recorders (FluxLanes of rec), analog-Trojan
	// scratch and lane-retirement state (retire.go). Private to this
	// chip handle — Clone and WithStuckAt reset them.
	wide  *logic.WideState
	recs  []*power.Recorder
	a2s   []analog.A2
	watch []laneWatch

	// fixed is the fixed-point replay slot: the last simulated scalar
	// capture that left the chip exactly where it started (a dormant chip
	// under fixed stimulus). The next identical capture from that state
	// replays it instead of simulating. Its Tiles alias rec, so capture
	// clears the slot before the recorder is reused.
	fixed *fixedPoint
}

// fixedPoint is one replayable fixed-point capture: the state it starts
// from (which, being a fixed point, is also its end state), the
// stimulus, and the result.
type fixedPoint struct {
	pre     state
	pt, key [16]byte
	cycles  int
	idle    bool
	cap     *Capture
}

// state is the chip's mutable state: simulator net values and cycle
// counter, the analog Trojan's charge-pump state, and whether it is
// armed. Couplings, floorplan and netlist are immutable and shared.
type state struct {
	sim  *logic.State
	a2   analog.A2
	a2On bool
}

// New builds, places and couples a chip. Builds are memoized
// process-wide: chips whose configurations differ only in Seed share
// one immutable structure (netlist, floorplan, coil couplings, compiled
// program, the recorder's charge tables) and differ only in their
// private mutable state.
func New(cfg Config) (*Chip, error) {
	if cfg.SpiralTurns < 1 || cfg.ProbeTurns < 1 {
		return nil, fmt.Errorf("chip: coil turn counts must be at least 1, got spiral %d, probe %d", cfg.SpiralTurns, cfg.ProbeTurns)
	}
	if cfg.Insert != nil && !reflect.ValueOf(cfg.Insert).Comparable() {
		return nil, fmt.Errorf("chip: inserter %s of type %T is not comparable, so it cannot key the build cache", cfg.Insert.InsertName(), cfg.Insert)
	}
	key := buildKey{cfg: cfg}
	key.cfg.Seed = 0
	b := lookupBuild(key)
	if b == nil {
		var err error
		b, err = buildChip(cfg)
		if err != nil {
			return nil, err
		}
		storeBuild(key, b)
	}
	c := &Chip{
		cfg: cfg, design: b.id, n: b.n, sim: b.template.Fork(), fp: b.fp, rec: b.rec.Fork(),
		sensor:  b.sensor,
		trojans: b.trojans,
		t2Tile:  b.t2Tile,
		streams: new(atomic.Uint64),
	}
	if cfg.WithA2 {
		c.a2 = analog.NewA2(cfg.A2)
		c.a2Victim = b.a2Victim
		c.a2Tile = b.a2Tile
	}
	return c, nil
}

// baseDesign is the part of every chip's netlist that no Config
// changes: the AES core, then the clock divider. It is generated once
// per process and kept (about 2 MB); each build starts from a clone of
// the builder, and the core's nets, which every clone shares, are only
// read.
var baseDesign = sync.OnceValues(func() (*netlist.Builder, *aes.Core) {
	b := netlist.NewBuilder("aes_base")
	core := aes.Generate(b)

	// Clock-division wire: bit 0 of a free-running divider toggles every
	// cycle; it is the A2 Trojan's victim and trigger source, matching
	// "the trigger input ... is provided by the on-chip clock division
	// signal".
	b.SetRegion("clkdiv")
	div := b.Counter(2, netlist.InvalidNet)
	b.Output("clkdiv", div)
	b.SetRegion("")
	return b, core
})

// buildChip constructs the immutable part of a chip build: a clone of
// the base design, then the paper's Trojans and the inserted logic.
func buildChip(cfg Config) (*built, error) {
	base, core := baseDesign()
	b := base.Clone(chipName(cfg))

	trojans := make(map[trojan.Kind]*trojan.Instance)
	if cfg.WithTrojans {
		for _, k := range trojan.Kinds() {
			trojans[k] = trojan.Generate(b, core, k, cfg.Trojan)
		}
	}
	if cfg.Insert != nil {
		if err := cfg.Insert.Insert(b); err != nil {
			return nil, fmt.Errorf("chip: insert %s: %w", cfg.Insert.InsertName(), err)
		}
	}
	n := b.Build()
	template, err := logic.New(n)
	if err != nil {
		return nil, err
	}
	fp, err := layout.Place(n, cfg.Layout)
	if err != nil {
		return nil, err
	}
	spiral := emfield.SpiralGrid(fp.Die, 1, 1, cfg.SpiralTurns, cfg.SpiralZ)[0]
	sensor, err := emfield.CachedCoupling(spiral, fp.Grid, cfg.TileLoopArea, cfg.Quad)
	if err != nil {
		return nil, err
	}
	probeCoil := emfield.ExternalProbe(fp.Die, cfg.ProbeRadius, cfg.ProbeTurns, cfg.ProbeZ, cfg.ProbePitch)
	probe, err := emfield.CachedCoupling(probeCoil, fp.Grid, cfg.TileLoopArea, cfg.Quad)
	if err != nil {
		return nil, err
	}
	// Capture reads the coils' flux in this order: sensor, then probe.
	rec, err := power.NewRecorder(cfg.Power, fp, sensor.M, probe.M)
	if err != nil {
		return nil, err
	}

	out := &built{
		id: designIDs.Add(1), n: n, fp: fp, rec: rec,
		sensor: sensor, trojans: trojans, template: template,
	}
	if inst, ok := trojans[trojan.T2LeakageCurrent]; ok {
		// The crowbar pairs sit with the rest of the T2 block; use the
		// leak wire's driver cell tile as the injection point.
		out.t2Tile = fp.Grid.CellTile[n.Driver(inst.LeakWire)]
	}
	if cfg.WithA2 {
		p, ok := n.OutputPort("clkdiv")
		if !ok {
			return nil, fmt.Errorf("chip: clkdiv port missing")
		}
		out.a2Victim = p.Nets[0]
		out.a2Tile = fp.Grid.CellTile[n.Driver(out.a2Victim)]
	}
	return out, nil
}

func chipName(cfg Config) string {
	name := "aes_golden"
	if cfg.WithTrojans {
		name = "aes_infected"
	}
	if cfg.Insert != nil {
		name += "_" + cfg.Insert.InsertName()
	}
	return name
}

// Netlist returns the chip's gate-level design.
func (c *Chip) Netlist() *netlist.Netlist { return c.n }

// Floorplan returns the placed design.
func (c *Chip) Floorplan() *layout.Floorplan { return c.fp }

// Config returns the build configuration.
func (c *Chip) Config() Config { return c.cfg }

// A2 returns the analog Trojan instance, or nil.
func (c *Chip) A2() *analog.A2 { return c.a2 }

// Trojan returns the instance of the given kind, or nil on a golden chip.
func (c *Chip) Trojan(kind trojan.Kind) *trojan.Instance { return c.trojans[kind] }

// SensorCoupling returns the on-chip spiral's precomputed per-tile
// coupling. Consumers that re-weight tile currents (the fleet's
// process-variation sibling synthesis) need the raw couplings, not just
// the synthesized emf of a capture.
func (c *Chip) SensorCoupling() *emfield.Coupling { return c.sensor }

// SubSeed derives a deterministic seed from (cfg.Seed, stream, index).
// Distinct (stream, index) pairs land in unrelated points of the
// SplitMix64 permutation, so per-trace generators are statistically
// independent of each other, yet fully reproducible from cfg.Seed alone.
func (c *Chip) SubSeed(stream, index uint64) int64 {
	h := frand.SplitMix64(uint64(c.cfg.Seed) ^ 0x6d7472757374) // "mtrust"
	h = frand.SplitMix64(h ^ stream)
	h = frand.SplitMix64(h ^ index)
	return int64(h >> 1) // non-negative
}

// SplitRand returns a private generator for one trace, seeded by
// SubSeed. Use one stream id per capture set (NextStream) and the trace
// index within the set, so results do not depend on capture order or
// worker count.
func (c *Chip) SplitRand(stream, index uint64) *frand.Rand {
	return frand.NewRand(c.SubSeed(stream, index))
}

// NextStream reserves the next seed-stream id. The counter is shared
// with clones and stuck-at variants, so every capture set in an
// experiment gets a distinct stream no matter which chip handle runs it.
func (c *Chip) NextStream() uint64 { return c.streams.Add(1) - 1 }

// snapshot copies the chip's current mutable state.
func (c *Chip) snapshot() state {
	s := state{sim: c.sim.State(), a2On: c.a2Enabled}
	if c.a2 != nil {
		s.a2 = *c.a2
	}
	return s
}

// restore rewinds the chip to a snapshot taken on the same design. The
// caller's generator, not the chip, draws the noise, so replayed
// captures can draw fresh noise.
func (c *Chip) restore(s state) {
	c.sim.SetState(s.sim)
	if c.a2 != nil {
		*c.a2 = s.a2
	}
	c.a2Enabled = s.a2On
}

// at reports whether the chip sits exactly in state s: the same net
// values and analog-Trojan state (the cycle counter may differ).
func (c *Chip) at(s state) bool {
	if c.a2Enabled != s.a2On || (c.a2 != nil && *c.a2 != s.a2) {
		return false
	}
	return c.sim.State().ValuesEqual(s.sim)
}

// Clone returns an independent chip sharing c's immutable structure
// (netlist, floorplan, couplings, Trojan instances, the recorder's
// charge tables) with its own simulator, activity recorder and analog
// Trojan state, all copied from c's current state. A clone can capture
// on its own goroutine; the logic.Simulator is single-goroutine, the
// chips' shared structures are read-only.
func (c *Chip) Clone() *Chip {
	out := *c
	out.sim = c.sim.Fork()
	out.rec = c.rec.Fork()
	if c.a2 != nil {
		a2 := *c.a2
		out.a2 = &a2
	}
	out.resetPrivate()
	return &out
}

// resetPrivate detaches the per-handle lazy machinery after a shallow
// chip copy: the wide engine wraps the source's simulator, the pooled
// recorders and the fixed-point slot belong to the source handle.
func (c *Chip) resetPrivate() {
	c.wide = nil
	c.recs = nil
	c.a2s = nil
	c.watch = nil
	c.fixed = nil
}

// SetTrojan switches a digital Trojan's external trigger and advances one
// cycle so the activation flag registers, mirroring the measurement
// procedure of Section V-B ("the Trojans are activated in sequence").
func (c *Chip) SetTrojan(kind trojan.Kind, on bool) error {
	if _, ok := c.trojans[kind]; !ok {
		return fmt.Errorf("chip: %v not present on %s", kind, c.n.Name)
	}
	v := uint64(0)
	if on {
		v = 1
	}
	if err := c.sim.SetPortUint(kind.TriggerPort(), v); err != nil {
		return err
	}
	c.sim.Settle()
	c.sim.Tick()
	return nil
}

// SetPort drives a one-bit input port and advances one cycle so a
// registered activation flag behind it latches — the generic form of
// SetTrojan for inserted logic (a campaign member's force input).
func (c *Chip) SetPort(name string, on bool) error {
	v := uint64(0)
	if on {
		v = 1
	}
	if err := c.sim.SetPortUint(name, v); err != nil {
		return err
	}
	c.sim.Settle()
	c.sim.Tick()
	return nil
}

// DeactivateAll clears every digital Trojan trigger.
func (c *Chip) DeactivateAll() error {
	for k := range c.trojans {
		if err := c.SetTrojan(k, false); err != nil {
			return err
		}
	}
	return nil
}

// EnableA2 resets (and re-arms) the analog Trojan; disable detaches it.
func (c *Chip) EnableA2(on bool) {
	if c.a2 == nil {
		return
	}
	c.a2.Reset()
	c.a2Enabled = on
}

// CapturePT runs one capture of the given number of clock cycles: one
// AES encryption of pt under key, started at cycle 2, with Trojan and
// analog activity for the whole window. It returns the clean
// (noise-free) sensor and probe waveforms.
//
// Fixed-point fast path: when the chip is dormant (no active Trojan
// state machine evolving), a fixed-stimulus capture returns the chip to
// exactly its pre-capture state; the chip keeps the last such capture,
// and an identical capture from that state replays it (the same
// *Capture) while only advancing the cycle counter. Replay is gated on
// exact state equality, so an active Trojan — whose state genuinely
// evolves — never hits it.
func (c *Chip) CapturePT(pt, key []byte, cycles int) (*Capture, error) {
	if len(pt) != 16 || len(key) != 16 {
		return nil, fmt.Errorf("chip: need 16-byte pt and key")
	}
	var ptA, keyA [16]byte
	copy(ptA[:], pt)
	copy(keyA[:], key)
	return c.capture(ptA, keyA, cycles, false)
}

// CaptureIdle runs a capture with no encryption: the Section V-A noise
// measurement ("the chip is powered up without executing the
// encryption"). Only the clock tree and any active Trojans draw current.
// It shares CapturePT's fixed-point fast path.
func (c *Chip) CaptureIdle(cycles int) (*Capture, error) {
	return c.capture([16]byte{}, [16]byte{}, cycles, true)
}

// checkCycles rejects a capture window that holds no clock cycle.
func checkCycles(cycles int) error {
	if cycles < 1 {
		return fmt.Errorf("chip: capture of %d cycles (need >= 1)", cycles)
	}
	return nil
}

// capture is the scalar capture sequence behind CapturePT and
// CaptureIdle: replay the fixed-point slot when it holds this capture
// from the chip's current state, or simulate the window — for an
// encryption, an idle lead-in cycle, the plaintext, key and start
// pulse, the load edge, then the remaining cycles — and keep it in the
// slot when it ends where it started.
func (c *Chip) capture(pt, key [16]byte, cycles int, idle bool) (*Capture, error) {
	if err := checkCycles(cycles); err != nil {
		return nil, err
	}
	if f := c.fixed; f != nil && f.pt == pt && f.key == key && f.cycles == cycles && f.idle == idle && c.at(f.pre) {
		c.sim.SetCycle(c.sim.Cycle() + cycles)
		return f.cap, nil
	}
	pre := c.snapshot()
	c.fixed = nil // its Tiles alias the recorder buffers Begin reuses
	s := c.sim
	c.rec.Begin(cycles)
	// Batched toggle accounting: the engine accumulates toggle events per
	// cycle and tick() drains them into the recorder in occurrence order,
	// so rec.Currents() is bit-identical under either engine.
	s.BatchToggles(true)
	defer s.BatchToggles(false)

	start := 0
	if !idle {
		// Cycle 0: idle lead-in.
		if err := c.tick(); err != nil {
			return nil, err
		}
		// Set up the encryption; the input settle happens inside the cycle.
		if err := s.SetPortBits(aes.PortPT, aes.BytesToBits(pt[:])); err != nil {
			return nil, err
		}
		if err := s.SetPortBits(aes.PortKey, aes.BytesToBits(key[:])); err != nil {
			return nil, err
		}
		if err := s.SetPortUint(aes.PortStart, 1); err != nil {
			return nil, err
		}
		s.Settle()
		if err := c.tick(); err != nil { // load edge
			return nil, err
		}
		if err := s.SetPortUint(aes.PortStart, 0); err != nil {
			return nil, err
		}
		s.Settle()
		start = 2
	}
	for i := start; i < cycles; i++ {
		if err := c.tick(); err != nil {
			return nil, err
		}
	}
	cap := recorded(c.rec)
	if c.at(pre) {
		c.fixed = &fixedPoint{pre: pre, pt: pt, key: key, cycles: cycles, idle: idle, cap: cap}
	}
	return cap, nil
}

// recorded returns the capture rec has just recorded: the sensor and
// probe emf from its coils' flux (in buildChip's order) and its per-tile
// waveforms, which a flux lane does not keep.
func recorded(rec *power.Recorder) *Capture {
	flux, dt := rec.Flux(), rec.Dt()
	return &Capture{
		Sensor: emfield.FluxToEMF(flux[0], dt),
		Probe:  emfield.FluxToEMF(flux[1], dt),
		Dt:     dt,
		Tiles:  rec.Currents(),
	}
}

// tick advances one clock cycle inside a capture: gate-level simulation,
// then the analog hooks, then the waveform flush.
func (c *Chip) tick() error {
	c.sim.Tick()
	// Drain the cycle's batched toggles (including any from inter-tick
	// Settle calls) into the recorder before the cycle flushes.
	c.rec.DrainToggles(c.sim.TakeToggles())
	// T2 crowbar leakage: static current while active and the head bit
	// of the leakage shift register is low.
	if inst, ok := c.trojans[trojan.T2LeakageCurrent]; ok {
		if c.sim.Net(inst.Active) == 1 && c.sim.Net(inst.LeakWire) == 0 {
			c.rec.AddStaticCurrent(c.t2Tile, c.cfg.Power.CrowbarCurrent*float64(inst.CrowbarPairs))
		}
	}
	// A2 charge pump on the clock-division wire.
	if c.a2 != nil && c.a2Enabled {
		res := c.a2.Step(c.sim.Net(c.a2Victim))
		if res.Pumped {
			c.rec.AddFastToggles(c.a2Tile, 1, c.a2.Config().PumpCharge)
		}
		if res.FastToggles > 0 {
			c.rec.AddFastToggles(c.a2Tile, res.FastToggles, c.a2.Config().TriggerCharge)
		}
	}
	return c.rec.EndCycle()
}

// WithStuckAt returns a new chip identical to c except for a stuck-at
// fault on the given net (a fabrication defect or a crude tampering
// attempt). Floorplan, coil couplings and the recorder's charge tables
// (computed from the floorplan's cells) are shared — the die geometry
// does not change — but the gate-level simulator is rebuilt for the
// mutated netlist, and the variant takes a fresh design id so it never
// replays its parent's captures.
func (c *Chip) WithStuckAt(net netlist.Net, value bool) (*Chip, error) {
	mutated, err := c.n.StuckAt(net, value)
	if err != nil {
		return nil, err
	}
	sim, err := logic.New(mutated)
	if err != nil {
		return nil, err
	}
	out := *c
	out.design = designIDs.Add(1)
	out.n = mutated
	out.sim = sim
	out.rec = c.rec.Fork()
	if c.a2 != nil {
		out.a2 = analog.NewA2(c.cfg.A2)
	}
	out.resetPrivate()
	return &out, nil
}

// ResetState zeroes every register and re-settles the design, so the
// next capture starts from a known all-zero state (side-channel attack
// workloads depend on a fixed pre-encryption state).
func (c *Chip) ResetState() {
	c.sim.Reset()
	if c.a2 != nil {
		c.a2.Reset()
	}
}

// Ciphertext returns the AES output register contents (valid after a
// capture whose encryption completed).
func (c *Chip) Ciphertext() ([]byte, error) {
	bits, err := c.sim.PortBits(aes.PortCT)
	if err != nil {
		return nil, err
	}
	return aes.BitsToBytes(bits), nil
}

// Capture is the clean dual-channel output of one trace window.
type Capture struct {
	Sensor []float64 // on-chip spiral emf (volts)
	Probe  []float64 // external probe emf (volts)
	Dt     float64
	// Tiles holds the per-tile supply-current waveforms of the window,
	// indexed [tile][sample]. Sensor and Probe are projected from the
	// same activity cycle by cycle, so they match the couplings' EMF over
	// Tiles to rounding, not bit for bit. The slices alias the
	// recorder's buffers and are only valid until the chip's next
	// simulated capture — a replayed fixed-point capture's Tiles alias
	// the recorder too, until then; consumers (like the ring-oscillator
	// baseline) must read them before that or copy.
	Tiles [][]float64
}

// Channels bundles the two acquisition channels of an experiment. The
// fields are interfaces so a degradation wrapper (internal/degrade) can
// stand in for the healthy trace.Acquisition on either side. A nil
// Probe makes a sensor-only pair.
type Channels struct {
	Sensor trace.Channel
	Probe  trace.Channel
}

// SimulationChannels returns the Section IV noise setup: white noise
// only, with the external probe picking up several times more
// environment noise than the shielded on-chip sensor. The floors are
// calibrated so the default workload lands near the paper's simulated
// SNRs (29.98 dB on-chip, 17.48 dB external).
func SimulationChannels() Channels {
	return Channels{
		Sensor: trace.SimulationChannel(1e-8),
		Probe:  trace.SimulationChannel(3.8e-8),
	}
}

// MeasurementChannels returns the Section V setup: the probe also picks
// up narrowband lab interference and both channels pass through the
// oscilloscope ADC, which is why the fabricated chip's external probe
// reads worse (13.87 dB) than its simulation (17.48 dB) while the
// on-chip sensor barely moves (30.55 dB).
func MeasurementChannels() Channels {
	s := trace.MeasurementChannel(1e-8, 2e-9, 4e-6)
	p := trace.MeasurementChannel(1.9e-8, 5.8e-8, 4e-6)
	s.ADCBits, p.ADCBits = 10, 10
	return Channels{Sensor: s, Probe: p}
}

// Acquire converts a clean capture into measured traces using the
// given generator: the sensor, then the probe when Probe is set, whose
// trace is nil otherwise. Sensor noise is drawn first — the draw order
// is part of the reproducibility contract — so a sensor-only
// acquisition returns the sensor trace a dual one does, bit for bit.
func (ch Channels) Acquire(cap *Capture, rng trace.Rand) (sensor, probe *trace.Trace) {
	sensor = ch.Sensor.Acquire(cap.Sensor, cap.Dt, rng)
	if ch.Probe != nil {
		probe = ch.Probe.Acquire(cap.Probe, cap.Dt, rng)
	}
	return sensor, probe
}
