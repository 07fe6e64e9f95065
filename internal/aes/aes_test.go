package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// RoundKey returns round key r (0..10) in r+4c order.
func (c *Cipher) RoundKey(r int) [16]byte { return c.roundKeys[r] }

func TestGFMulKnown(t *testing.T) {
	// Classic FIPS-197 examples.
	if got := Mul(0x57, 0x83); got != 0xc1 {
		t.Fatalf("0x57*0x83 = %#x, want 0xc1", got)
	}
	if got := Mul(0x57, 0x13); got != 0xfe {
		t.Fatalf("0x57*0x13 = %#x, want 0xfe", got)
	}
}

func TestGFMulProperties(t *testing.T) {
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error("commutativity:", err)
	}
	ident := func(a byte) bool { return Mul(a, 1) == a }
	if err := quick.Check(ident, nil); err != nil {
		t.Error("identity:", err)
	}
	zero := func(a byte) bool { return Mul(a, 0) == 0 }
	if err := quick.Check(zero, nil); err != nil {
		t.Error("zero:", err)
	}
	distrib := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(distrib, nil); err != nil {
		t.Error("distributivity:", err)
	}
	assoc := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Error("associativity:", err)
	}
}

func TestGFInv(t *testing.T) {
	if Inv(0) != 0 {
		t.Fatal("Inv(0) must be 0")
	}
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a*Inv(a) = %#x for a=%#x", got, a)
		}
	}
}

func TestXTime(t *testing.T) {
	for a := 0; a < 256; a++ {
		if XTime(byte(a)) != Mul(byte(a), 2) {
			t.Fatalf("XTime(%#x) != Mul(.,2)", a)
		}
	}
}

func TestSBoxKnownValues(t *testing.T) {
	// Spot values from the FIPS-197 S-box table.
	cases := map[byte]byte{0x00: 0x63, 0x01: 0x7c, 0x53: 0xed, 0xff: 0x16, 0x10: 0xca}
	for in, want := range cases {
		if got := SBox(in); got != want {
			t.Fatalf("SBox(%#02x) = %#02x, want %#02x", in, got, want)
		}
	}
}

func TestSBoxIsPermutation(t *testing.T) {
	var seen [256]bool
	for x := 0; x < 256; x++ {
		v := SBox(byte(x))
		if seen[v] {
			t.Fatalf("S-box value %#02x repeats", v)
		}
		seen[v] = true
	}
}

func TestBehavioralMatchesCryptoAES(t *testing.T) {
	// FIPS-197 Appendix B vector.
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	pt := []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
	want := []byte{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32}

	c := NewCipher(key)
	got := make([]byte, 16)
	c.Encrypt(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("FIPS vector failed: got %x", got)
	}

	// Random cross-check against the standard library.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		k := make([]byte, 16)
		p := make([]byte, 16)
		rng.Read(k)
		rng.Read(p)
		ref, err := stdaes.NewCipher(k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 16)
		ref.Encrypt(want, p)
		got := make([]byte, 16)
		NewCipher(k).Encrypt(got, p)
		if !bytes.Equal(got, want) {
			t.Fatalf("mismatch for key %x pt %x: got %x want %x", k, p, got, want)
		}
	}
}

func TestNewCipherPanicsOnBadKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCipher(make([]byte, 24))
}

func TestRoundKeyZeroIsKey(t *testing.T) {
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	rk0 := NewCipher(key).RoundKey(0)
	// roundKeys store r+4c layout; key byte 4c+r maps to rk0[r+4c].
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			if rk0[r+4*c] != key[4*c+r] {
				t.Fatalf("round key 0 layout wrong at r=%d c=%d", r, c)
			}
		}
	}
}

func TestBitsRoundTrip(t *testing.T) {
	f := func(block [16]byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(block[:])), block[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsToBytesPanicsOnRaggedInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BitsToBytes(make([]uint8, 13))
}

func TestSBoxToggleCharge(t *testing.T) {
	profile := SBoxToggleCharge()
	// Staying at zero draws nothing.
	if profile[0] != 0 {
		t.Fatalf("profile[0] = %g", profile[0])
	}
	// Every non-zero transition draws positive charge, and the profile
	// varies across inputs (otherwise it carries no information).
	min, max := profile[1], profile[1]
	for x := 1; x < 256; x++ {
		if profile[x] <= 0 {
			t.Fatalf("profile[%#x] = %g", x, profile[x])
		}
		if profile[x] < min {
			min = profile[x]
		}
		if profile[x] > max {
			max = profile[x]
		}
	}
	if max < min*1.2 {
		t.Fatalf("profile too flat: [%g, %g]", min, max)
	}
	// Memoized: a second call returns identical data.
	again := SBoxToggleCharge()
	for x := range profile {
		if profile[x] != again[x] {
			t.Fatal("profile not stable")
		}
	}
	// Pinned bit for bit: any change to the toggle order the sum walks
	// (or to the charges) moves the hash.
	h := fnv.New64a()
	for _, v := range profile {
		fmt.Fprintf(h, "%x,", math.Float64bits(v))
	}
	if got, want := h.Sum64(), uint64(0x97c8a886cf7702d0); got != want {
		t.Fatalf("profile hash = %016x, want %016x", got, want)
	}
}
