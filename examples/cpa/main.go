// Cpa mounts a profiled correlation attack on the AES key through the
// on-chip EM sensor — the "rich in information" property of the EM side
// channel, demonstrated on the same coil the trust framework uses for
// Trojan detection. The leakage template comes straight from the S-box
// netlist generator.
package main

import (
	"fmt"
	"log"
	"time"

	"emtrust"
	"emtrust/internal/attack"
	"emtrust/internal/frand"
)

func main() {
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	dev, err := emtrust.NewDevice(emtrust.DeviceOptions{Golden: true, Key: key})
	if err != nil {
		log.Fatal(err)
	}

	cfg := attack.DefaultCPAConfig()
	fmt.Printf("collecting %d random-plaintext captures and correlating...\n", cfg.Traces)
	start := time.Now()
	res, err := attack.Run(dev.Chip(), key, cfg, frand.NewRand(3))
	if err != nil {
		log.Fatal(err)
	}
	res.Evaluate(key)
	fmt.Print(res)
	fmt.Printf("true key:  %x\n", key)
	fmt.Printf("elapsed:   %.1fs\n", time.Since(start).Seconds())
}
