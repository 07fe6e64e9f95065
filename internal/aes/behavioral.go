package aes

// This file implements the behavioral AES-128 model. The state follows
// FIPS-197 conventions: state[r][c] corresponds to input byte in[r+4c],
// kept here as a flat [16]byte indexed r+4c.

// sbox and invAffine are derived, not hardcoded, so the math is the single
// source of truth shared with the structural generator.
var sbox = buildSbox()

func buildSbox() [256]byte {
	var s [256]byte
	for x := 0; x < 256; x++ {
		s[x] = affine(Inv(byte(x)))
	}
	return s
}

// affine applies the AES affine transformation to the field inverse.
func affine(b byte) byte {
	var out byte
	for i := 0; i < 8; i++ {
		bit := b >> uint(i) & 1
		bit ^= b >> uint((i+4)%8) & 1
		bit ^= b >> uint((i+5)%8) & 1
		bit ^= b >> uint((i+6)%8) & 1
		bit ^= b >> uint((i+7)%8) & 1
		bit ^= 0x63 >> uint(i) & 1
		out |= bit << uint(i)
	}
	return out
}

// SBox returns the AES S-box value for x.
func SBox(x byte) byte { return sbox[x] }

// rcon holds the round constants for rounds 1..10.
var rcon = [11]byte{0, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// Rcon returns the round constant for round r (1..10).
func Rcon(r int) byte { return rcon[r] }

// Cipher is a behavioral AES-128 encryption engine with a fixed expanded
// key.
type Cipher struct {
	roundKeys [11][16]byte // indexed [round][r+4c]
}

// NewCipher expands a 16-byte key. It panics on a wrong key length (a
// programming error in this codebase, which only ever uses AES-128).
func NewCipher(key []byte) *Cipher {
	if len(key) != 16 {
		panic("aes: NewCipher requires a 16-byte key")
	}
	c := &Cipher{}
	// Key expansion over 4-byte words w[0..43].
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			t = [4]byte{
				sbox[t[1]] ^ rcon[i/4],
				sbox[t[2]],
				sbox[t[3]],
				sbox[t[0]],
			}
		}
		for k := 0; k < 4; k++ {
			w[i][k] = w[i-4][k] ^ t[k]
		}
	}
	for round := 0; round < 11; round++ {
		for col := 0; col < 4; col++ {
			for row := 0; row < 4; row++ {
				c.roundKeys[round][row+4*col] = w[4*round+col][row]
			}
		}
	}
	return c
}

// Encrypt encrypts one 16-byte block. dst and src may overlap.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < 16 || len(dst) < 16 {
		panic("aes: Encrypt requires 16-byte blocks")
	}
	var s [16]byte
	// Load: state[r][c] = in[r+4c]; our flat layout matches the input.
	copy(s[:], src[:16])
	addRoundKey(&s, &c.roundKeys[0])
	for round := 1; round <= 9; round++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		addRoundKey(&s, &c.roundKeys[round])
	}
	subBytes(&s)
	shiftRows(&s)
	addRoundKey(&s, &c.roundKeys[10])
	copy(dst[:16], s[:])
}

func subBytes(s *[16]byte) {
	for i, v := range s {
		s[i] = sbox[v]
	}
}

// shiftRows rotates row r left by r. Index = r + 4c.
func shiftRows(s *[16]byte) {
	var t [16]byte
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			t[r+4*c] = s[r+4*((c+r)%4)]
		}
	}
	*s = t
}

func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		col := s[4*c : 4*c+4]
		a0, a1, a2, a3 := col[0], col[1], col[2], col[3]
		col[0] = XTime(a0) ^ XTime(a1) ^ a1 ^ a2 ^ a3
		col[1] = a0 ^ XTime(a1) ^ XTime(a2) ^ a2 ^ a3
		col[2] = a0 ^ a1 ^ XTime(a2) ^ XTime(a3) ^ a3
		col[3] = XTime(a0) ^ a0 ^ a1 ^ a2 ^ XTime(a3)
	}
}

func addRoundKey(s, k *[16]byte) {
	for i := range s {
		s[i] ^= k[i]
	}
}
