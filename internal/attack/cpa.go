// Package attack implements correlation power analysis (CPA) over the
// on-chip sensor's EM traces. The paper motivates EM as "rich in
// information"; this package quantifies that: the same coil the trust
// framework monitors carries enough data-dependent leakage to recover
// the AES key byte by byte with a first-order Pearson attack — which is
// also why runtime integrity monitoring and side-channel hygiene are two
// sides of one sensor.
package attack

import (
	"fmt"
	"math"
	"math/bits"

	"emtrust/internal/aes"
	"emtrust/internal/chip"
	"emtrust/internal/frand"
	"emtrust/internal/trace"
)

// CPAConfig tunes the attack.
type CPAConfig struct {
	// Traces is the number of random-plaintext captures.
	Traces int
	// Cycles is the capture window (it only needs to cover the load
	// edge and the first round).
	Cycles int
	// WindowStart/WindowEnd bound the samples correlated (the load and
	// first-round activity).
	WindowStart, WindowEnd int
	// ReceiverNoise is the attack front-end noise floor (volts RMS).
	ReceiverNoise float64
	// Model selects the leakage hypothesis: "load" (Hamming weight of
	// the loaded state byte), "sbox" (S-box output-difference weight),
	// "combined" (both) or "profiled" (the default: the exact S-box
	// cone charge from the netlist generator plus the register load).
	Model string
}

// DefaultCPAConfig returns settings that recover the key on clean
// captures in a few thousand traces.
func DefaultCPAConfig() CPAConfig {
	return CPAConfig{
		Traces:        3000,
		Cycles:        16,
		WindowStart:   16, // cycle 1: the load edge settle
		WindowEnd:     32, // just that cycle
		ReceiverNoise: 2e-9,
		Model:         "profiled",
	}
}

// ByteResult is the attack outcome for one key byte.
type ByteResult struct {
	Guess byte
	// Correlation is the best absolute Pearson correlation of the
	// winning hypothesis.
	Correlation float64
	// Margin is the winning correlation divided by the runner-up's: a
	// margin clearly above 1 means a confident recovery.
	Margin float64
}

// Result is the full 16-byte attack outcome.
type Result struct {
	Bytes   [16]ByteResult
	Correct int // bytes matching the true key (filled by Evaluate)
}

// hypothesis returns the leakage model for plaintext byte p under key
// hypothesis k at the load edge, where the state leaves all-zero reset:
// the Hamming weight of the loaded byte (register and fanout toggles)
// and/or the S-box cone's response (HW(sbox(p^k) ^ sbox(0))).
func hypothesis(model string, p, k byte) float64 {
	in := p ^ k
	switch model {
	case "load":
		return float64(bits.OnesCount8(in))
	case "sbox":
		return float64(bits.OnesCount8(aes.SBox(in) ^ aes.SBox(0)))
	case "combined":
		return float64(bits.OnesCount8(in)) + float64(bits.OnesCount8(aes.SBox(in)^aes.SBox(0)))
	default: // profiled
		profile := aes.SBoxToggleCharge()
		const registerCharge = 400e-15 // DFFE + load mux per state bit
		return profile[in] + float64(bits.OnesCount8(in))*registerCharge
	}
}

// Run collects traces from the chip (which must be Trojan-free and use a
// fixed key) and mounts the CPA. Every trace is captured from the chip's
// reset state so the load-edge Hamming model holds: Run draws all the
// plaintexts from rng, resets the chip once, captures them in batches of
// chip.BatchLanes from that state and acquires the traces in order,
// drawing their noise from rng after the plaintexts. The result depends
// on the seed of rng alone. The chip ends in the reset state.
func Run(c *chip.Chip, key []byte, cfg CPAConfig, rng *frand.Rand) (*Result, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("attack: need a 16-byte key")
	}
	if cfg.Traces < 16 || cfg.WindowEnd <= cfg.WindowStart {
		return nil, fmt.Errorf("attack: invalid config %+v", cfg)
	}
	rx := chip.Channels{
		Sensor: trace.SimulationChannel(cfg.ReceiverNoise),
		Probe:  trace.SimulationChannel(cfg.ReceiverNoise),
	}

	w := cfg.WindowEnd - cfg.WindowStart
	n := cfg.Traces
	pts := make([][]byte, n)
	for t := range pts {
		pts[t] = make([]byte, 16)
		rng.Read(pts[t])
	}
	c.ResetState()
	samples := make([][]float64, n) // [trace][windowSample]
	lanes := chip.BatchLanes()
	for lo := 0; lo < n; lo += lanes {
		caps, err := c.CaptureBatch(pts[lo:min(lo+lanes, n)], key, cfg.Cycles)
		if err != nil {
			return nil, err
		}
		for i, cap := range caps {
			s, _ := rx.Acquire(cap, rng)
			if cfg.WindowEnd > len(s.Samples) {
				return nil, fmt.Errorf("attack: window [%d,%d) exceeds trace of %d samples",
					cfg.WindowStart, cfg.WindowEnd, len(s.Samples))
			}
			row := make([]float64, w)
			copy(row, s.Samples[cfg.WindowStart:cfg.WindowEnd])
			samples[lo+i] = row
		}
	}

	// Per-sample means and standard deviations, shared by every
	// hypothesis.
	meanX := make([]float64, w)
	for _, row := range samples {
		for s, v := range row {
			meanX[s] += v
		}
	}
	for s := range meanX {
		meanX[s] /= float64(n)
	}
	stdX := make([]float64, w)
	for _, row := range samples {
		for s, v := range row {
			d := v - meanX[s]
			stdX[s] += d * d
		}
	}
	for s := range stdX {
		stdX[s] = math.Sqrt(stdX[s])
	}

	var res Result
	h := make([]float64, n)
	for b := 0; b < 16; b++ {
		best, second := -1.0, -1.0
		var bestK byte
		for k := 0; k < 256; k++ {
			var sumH, sumH2 float64
			for t := 0; t < n; t++ {
				h[t] = hypothesis(cfg.Model, pts[t][b], byte(k))
				sumH += h[t]
				sumH2 += h[t] * h[t]
			}
			meanH := sumH / float64(n)
			stdH := math.Sqrt(sumH2 - float64(n)*meanH*meanH)
			if stdH == 0 {
				continue
			}
			// max |rho| over the window; cov = sum(h*x) - n*mh*mx.
			maxRho := 0.0
			for s := 0; s < w; s++ {
				if stdX[s] == 0 {
					continue
				}
				cov := 0.0
				for t := 0; t < n; t++ {
					cov += h[t] * samples[t][s]
				}
				cov -= float64(n) * meanH * meanX[s]
				rho := math.Abs(cov / (stdH * stdX[s]))
				if rho > maxRho {
					maxRho = rho
				}
			}
			switch {
			case maxRho > best:
				second = best
				best = maxRho
				bestK = byte(k)
			case maxRho > second:
				second = maxRho
			}
		}
		margin := 0.0
		if second > 0 {
			margin = best / second
		}
		res.Bytes[b] = ByteResult{Guess: bestK, Correlation: best, Margin: margin}
	}
	return &res, nil
}

// Evaluate fills Correct by comparing against the true key and returns
// the count.
func (r *Result) Evaluate(key []byte) int {
	r.Correct = 0
	for b := 0; b < 16 && b < len(key); b++ {
		if r.Bytes[b].Guess == key[b] {
			r.Correct++
		}
	}
	return r.Correct
}

// String renders the recovered key and per-byte confidence.
func (r *Result) String() string {
	out := "CPA over on-chip sensor traces:\n  guess:"
	for _, b := range r.Bytes {
		out += fmt.Sprintf(" %02x", b.Guess)
	}
	out += "\n  |rho|:"
	for _, b := range r.Bytes {
		out += fmt.Sprintf(" %.2f", b.Correlation)
	}
	out += fmt.Sprintf("\n  %d/16 bytes correct\n", r.Correct)
	return out
}
