package aes

import (
	"fmt"

	"emtrust/internal/logic"
)

// BytesToBits expands a byte block into a bus bit slice: byte i occupies
// bits 8i..8i+7, LSB first — the bus convention of the structural core.
func BytesToBits(block []byte) []uint8 {
	bits := make([]uint8, 8*len(block))
	for i, by := range block {
		for k := 0; k < 8; k++ {
			bits[8*i+k] = by >> uint(k) & 1
		}
	}
	return bits
}

// BitsToBytes packs a bus bit slice back into bytes (inverse of
// BytesToBits). The bit slice length must be a multiple of 8.
func BitsToBytes(bits []uint8) []byte {
	if len(bits)%8 != 0 {
		panic(fmt.Sprintf("aes: BitsToBytes needs a multiple of 8 bits, got %d", len(bits)))
	}
	out := make([]byte, len(bits)/8)
	for i := range out {
		var by byte
		for k := 0; k < 8; k++ {
			if bits[8*i+k] != 0 {
				by |= 1 << uint(k)
			}
		}
		out[i] = by
	}
	return out
}

// Driver runs encryptions on a simulated netlist that exposes the
// standard AES core ports.
type Driver struct {
	Sim *logic.Simulator
}

// NewDriver wraps a simulator whose netlist contains the AES core ports.
func NewDriver(sim *logic.Simulator) *Driver { return &Driver{Sim: sim} }

// Encrypt runs one complete encryption (Latency cycles plus the handshake
// cycle) and returns the ciphertext. Encrypt only drives the protocol:
// Trojan triggers are the caller's port writes, and toggles are
// recorded only if the caller turned on the simulator's batched
// accounting (and drains it).
func (d *Driver) Encrypt(pt, key []byte) ([]byte, error) {
	if len(pt) != 16 || len(key) != 16 {
		return nil, fmt.Errorf("aes: Encrypt needs 16-byte pt and key, got %d/%d", len(pt), len(key))
	}
	s := d.Sim
	if err := s.SetPortBits(PortPT, BytesToBits(pt)); err != nil {
		return nil, err
	}
	if err := s.SetPortBits(PortKey, BytesToBits(key)); err != nil {
		return nil, err
	}
	if err := s.SetPortUint(PortStart, 1); err != nil {
		return nil, err
	}
	s.Settle() // propagate inputs to register D pins before the edge
	s.Tick()   // load edge: state <- pt^key
	if err := s.SetPortUint(PortStart, 0); err != nil {
		return nil, err
	}
	s.Settle()
	for i := 0; i < Latency-1; i++ {
		s.Tick()
	}
	done, err := s.PortUint(PortDone)
	if err != nil {
		return nil, err
	}
	if done != 1 {
		return nil, fmt.Errorf("aes: done not asserted after %d cycles", Latency)
	}
	bits, err := s.PortBits(PortCT)
	if err != nil {
		return nil, err
	}
	return BitsToBytes(bits), nil
}
