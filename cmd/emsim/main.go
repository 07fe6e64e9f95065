// Command emsim runs one EM capture on the virtual chip and writes the
// sensor and probe traces (and optionally their spectra) as CSV, for
// plotting with any external tool.
//
// Usage:
//
//	emsim [-cycles n] [-trojan 0..4] [-a2] [-idle] [-spectrum] [-o dir]
//	      [-cpuprofile f] [-memprofile f]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"emtrust/internal/aes"
	"emtrust/internal/chip"
	"emtrust/internal/dsp"
	"emtrust/internal/frand"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

func main() {
	cycles := flag.Int("cycles", 64, "clock cycles to capture")
	trojanID := flag.Int("trojan", 0, "digital Trojan to activate (1-4, 0 = none)")
	a2 := flag.Bool("a2", false, "enable the A2 analog Trojan")
	idle := flag.Bool("idle", false, "capture without encrypting")
	spectrum := flag.Bool("spectrum", false, "also write one-sided amplitude spectra")
	outDir := flag.String("o", ".", "output directory")
	seed := flag.Int64("seed", 1, "random seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the capture to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the capture) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	err := run(*cycles, *trojanID, *a2, *idle, *spectrum, *outDir, *seed)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		runtime.GC() // materialize the retained heap
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			log.Fatal(ferr)
		}
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			log.Fatal(werr)
		}
		f.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run performs the capture and CSV writes, returning instead of exiting
// so main can flush profiles on every path. One generator seeded from
// seed draws the plaintext, then the noise.
func run(cycles int, trojanID int, a2, idle, spectrum bool, outDir string, seed int64) error {
	if !idle && cycles < aes.Latency+3 {
		return fmt.Errorf("emsim: capture of %d cycles cannot contain an encryption (need >= %d)", cycles, aes.Latency+3)
	}
	rng := frand.NewRand(seed)
	cfg := chip.DefaultConfig()
	cfg.Seed = seed
	c, err := chip.New(cfg)
	if err != nil {
		return err
	}
	if err := c.DeactivateAll(); err != nil {
		return err
	}
	c.EnableA2(a2)
	if trojanID != 0 {
		k := trojan.Kind(trojanID)
		if err := c.SetTrojan(k, true); err != nil {
			return err
		}
		log.Printf("activated %v: %s", k, k.Description())
	}
	if a2 {
		// Warm the charge pump so the capture shows the firing state.
		if _, err := c.CaptureIdle(600); err != nil {
			return err
		}
		log.Printf("A2 firing: %v (V=%.2f)", c.A2().Firing(), c.A2().Voltage())
	}

	var cap *chip.Capture
	if idle {
		cap, err = c.CaptureIdle(cycles)
	} else {
		key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
		pt := make([]byte, 16)
		rng.Read(pt)
		cap, err = c.CapturePT(pt, key, cycles)
	}
	if err != nil {
		return err
	}
	sensor, probe := chip.MeasurementChannels().Acquire(cap, rng)

	write := func(name, content string) error {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", path)
		return nil
	}
	if err := write("sensor.csv", sensor.CSV()); err != nil {
		return err
	}
	if err := write("probe.csv", probe.CSV()); err != nil {
		return err
	}

	if spectrum {
		for _, out := range []struct {
			name string
			tr   *trace.Trace
		}{
			{"sensor_spectrum.csv", sensor},
			{"probe_spectrum.csv", probe},
		} {
			s := dsp.NewSpectrum(out.tr.Samples, out.tr.Dt, dsp.Hann)
			var sb strings.Builder
			sb.WriteString("frequency_hz,amplitude_v\n")
			for k, a := range s.Amplitude {
				fmt.Fprintf(&sb, "%.6e,%.6e\n", s.Frequency(k), a)
			}
			if err := write(out.name, sb.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
