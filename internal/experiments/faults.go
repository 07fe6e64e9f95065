package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"emtrust/internal/aes"
	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/frand"
	"emtrust/internal/netlist"
	"emtrust/internal/parallel"
)

// FaultsResult evaluates the framework against plain defects: random
// stuck-at faults injected into the AES logic. The paper positions the
// monitor as identifying "malicious actions or vulnerabilities in the
// circuit"; stuck-at faults are the vulnerability end of that claim.
type FaultsResult struct {
	Faults int
	// FunctionallyVisible is how many faults corrupted the ciphertext
	// for the fixed test stimulus (what production functional test
	// would catch with this one vector).
	FunctionallyVisible int
	// EMVisible is how many faults the EM fingerprint flagged.
	EMVisible int
	// EitherVisible counts faults caught by at least one method.
	EitherVisible int
	// EMOnly counts faults the EM monitor caught although the
	// ciphertext stayed correct (activity changed, function did not —
	// invisible to this functional vector).
	EMOnly int
}

// Faults injects one stuck-at fault at a time into random AES cells and
// reports detectability. The fingerprint comes from the healthy chip.
func Faults(cfg Config) (*FaultsResult, error) {
	chipCfg := cfg.Chip
	chipCfg.WithTrojans = false
	chipCfg.WithA2 = false
	healthy, err := chip.New(chipCfg)
	if err != nil {
		return nil, err
	}
	ch := chip.SimulationChannels()
	golden, err := captureSet(healthy, cfg, ch, cfg.GoldenTraces, cfg.CaptureCycles)
	if err != nil {
		return nil, err
	}
	fp, err := core.BuildFingerprint(golden.Sensor.Traces, cfg.Fingerprint)
	if err != nil {
		return nil, err
	}
	wantCT := make([]byte, 16)
	aes.NewCipher(cfg.Key).Encrypt(wantCT, cfg.Plaintext)

	// Candidate fault sites: outputs of AES-region cells.
	n := healthy.Netlist()
	var sites []netlist.Net
	for _, c := range n.Cells {
		if strings.HasPrefix(c.Region, "aes") && !c.Type.IsSequential() {
			sites = append(sites, c.Output)
		}
	}
	rng := frand.NewRand(chipCfg.Seed + 7)
	faults := cfg.TestTraces / 3
	if faults < 8 {
		faults = 8
	}
	trials := 5

	// Draw the fault sites serially so the site sequence matches the old
	// shared-stream behavior, then evaluate the faults in parallel: each
	// fault builds its own stuck-at chip, captures the fixed stimulus
	// once, and replays the acquisition per trial with a derived stream.
	type faultCase struct {
		net   netlist.Net
		value bool
	}
	cases := make([]faultCase, faults)
	for f := range cases {
		cases[f] = faultCase{net: sites[rng.Intn(len(sites))], value: rng.Intn(2) == 1}
	}
	stream := healthy.NextStream()
	emVisible := make([]bool, faults)
	funcVisible := make([]bool, faults)
	err = parallel.For(faults, func(f int) error {
		faulty, err := healthy.WithStuckAt(cases[f].net, cases[f].value)
		if err != nil {
			return err
		}
		cap, err := faulty.CapturePT(cfg.Plaintext, cfg.Key, cfg.CaptureCycles)
		if err != nil {
			return err
		}
		ct, err := faulty.Ciphertext()
		if err != nil {
			return err
		}
		funcVisible[f] = !bytes.Equal(ct, wantCT)
		trng := healthy.SplitRand(stream, uint64(f))
		emHits := 0
		for i := 0; i < trials; i++ {
			s, _ := ch.Acquire(cap, trng)
			if fp.Evaluate(s).Alarm {
				emHits++
			}
		}
		emVisible[f] = emHits > trials/2
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &FaultsResult{Faults: faults}
	for f := 0; f < faults; f++ {
		em, functional := emVisible[f], funcVisible[f]
		if functional {
			res.FunctionallyVisible++
		}
		if em {
			res.EMVisible++
		}
		if em || functional {
			res.EitherVisible++
		}
		if em && !functional {
			res.EMOnly++
		}
	}
	return res, nil
}

// String renders the fault study.
func (r *FaultsResult) String() string {
	var sb strings.Builder
	pct := func(n int) float64 {
		if r.Faults == 0 {
			return 0
		}
		return 100 * float64(n) / float64(r.Faults)
	}
	fmt.Fprintf(&sb, "Stuck-at fault detectability, %d random AES faults (extension)\n", r.Faults)
	fmt.Fprintf(&sb, "%-34s %6d (%.0f%%)\n", "ciphertext corrupted (functional)", r.FunctionallyVisible, pct(r.FunctionallyVisible))
	fmt.Fprintf(&sb, "%-34s %6d (%.0f%%)\n", "EM fingerprint alarm", r.EMVisible, pct(r.EMVisible))
	fmt.Fprintf(&sb, "%-34s %6d (%.0f%%)\n", "caught by either", r.EitherVisible, pct(r.EitherVisible))
	fmt.Fprintf(&sb, "%-34s %6d (%.0f%%)\n", "EM-only (function intact)", r.EMOnly, pct(r.EMOnly))
	fmt.Fprintf(&sb, "(an honest negative: single stuck-at defects corrupt function long\n before they move the EM fingerprint — the side channel is a Trojan\n detector, not a replacement for functional test)\n")
	return sb.String()
}
