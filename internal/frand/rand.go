package frand

import "math"

// Rand is a concrete replica of *math/rand.Rand over a Source: every
// method reproduces math/rand's algorithm operation for operation, so
// the value streams are bit-identical for any seed — the difference is
// purely mechanical. math/rand layers each draw through an interface
// hop to its source; here the source is embedded, so Float64 and
// NormFloat64 compile down to direct array arithmetic, which matters
// when the acquisition path draws one normal variate per trace sample.
//
// Not safe for concurrent use.
type Rand struct {
	src Source
	// readVal is the Int63 Read is handing out, low byte first, and
	// readPos counts its unread bytes, as in math/rand.
	readVal int64
	readPos int8
}

// NewRand returns a generator seeded like rand.New(rand.NewSource(seed)).
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.src.Seed(seed)
	return r
}

// Seed resets the generator to the deterministic state for seed and,
// like math/rand's Seed, drops the bytes a Read left unread.
func (r *Rand) Seed(seed int64) {
	r.src.Seed(seed)
	r.readPos = 0
}

// SplitMix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// permutation. Chained over a seed and the coordinates of a draw site,
// it derives that site's generator seed, so streams for distinct sites
// are independent yet reproducible from the one seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.src.Uint64() & rngMask) }

// Uint64 returns the next 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Uint32 returns a 32-bit value, consuming one Int63 like math/rand.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 returns a non-negative 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Read fills p with random bytes as math/rand's Read does: seven bytes
// per Int63, low byte first. The bytes one call leaves unread carry over
// to the next Read, whatever other draws come in between. It always
// returns len(p) and a nil error.
func (r *Rand) Read(p []byte) (n int, err error) {
	pos, val := r.readPos, r.readVal
	for i := range p {
		if pos == 0 {
			val = r.Int63()
			pos = 7
		}
		p[i] = byte(val)
		val >>= 8
		pos--
	}
	r.readPos, r.readVal = pos, val
	return len(p), nil
}

// Int63n returns a non-negative integer in [0, n). Panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n returns a non-negative integer in [0, n). Panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns a non-negative integer in [0, n). Panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a value in [0, 1), preserving math/rand's Go 1
// stream (Int63 divided by 2⁶³, resampling the 1.0 rounding case).
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

const rn = 3.442619855899

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// NormFloat64 returns a standard normal variate via the same ziggurat
// (Marsaglia & Tsang) walk as math/rand, value stream included.
func (r *Rand) NormFloat64() float64 {
	j := int32(r.Uint32()) // Possibly negative
	if i := j & 0x7F; absInt32(j) < kn[i] {
		// This case should be hit better than 99% of the time.
		return float64(j) * float64(wn[i])
	}
	return r.normSlow(j)
}

// NormFloat64s fills dst with successive NormFloat64 draws: the same
// values, in order, consuming the same stream. The ziggurat's fast box
// runs inline over the ring's unread words (normFast); the wedge and
// tail run out of line.
func (r *Rand) NormFloat64s(dst []float64) {
	s := &r.src
	for len(dst) > 0 {
		if s.feed == s.stop {
			s.refill()
		}
		// The run's unread words, handed out from the top down.
		w := s.vec[s.stop:s.feed]
		w = w[len(w)-min(len(w), len(dst)):]
		k := normFast(dst[:len(w)], w)
		s.feed -= k
		dst = dst[k:]
		if k < len(w) {
			s.feed--
			dst[0] = r.normSlow(int32(w[len(w)-1-k] & rngMask >> 31))
			dst = dst[1:]
		}
	}
}

// normFast converts the words of w, from the top down, into dst while
// each lands in the ziggurat's fast box, and returns how many it
// converted. len(dst) must equal len(w).
func normFast(dst []float64, w []uint64) int {
	for k := range dst {
		j := int32(w[len(w)-1-k] & rngMask >> 31) // Uint32, possibly negative
		i := j & 0x7F
		if absInt32(j) >= kn[i] {
			return k
		}
		dst[k] = float64(j) * float64(wn[i])
	}
	return len(dst)
}

// normSlow finishes a ziggurat draw whose first word j missed the fast
// box: the base strip's tail, or a wedge test that on rejection starts
// the walk over with a fresh word.
func (r *Rand) normSlow(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			// This extra work is only required for the base strip.
			for {
				x = -math.Log(r.Float64()) * (1.0 / rn)
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(r.Uint32())
	}
}

// resampleAt is the smallest Int63 value Float64 rounds to 1.0 and
// therefore resamples: float64(x) for x ≥ 2⁶³−512 rounds to 2⁶³.
const resampleAt = 1<<63 - 512

// FirstBelow makes up to n Bernoulli tests Float64() < p and returns
// the index of the first that succeeds, or n when none does. It
// consumes exactly the draws the Float64 loop would, stopping after
// the success, so FirstBelow(p, n) and
//
//	for i := 0; i < n; i++ { if r.Float64() < p { return i } }; return n
//
// leave the generator in the same state. With p ≤ 0 or NaN no test
// succeeds and all n draws are consumed.
func (r *Rand) FirstBelow(p float64, n int) int {
	t := belowThreshold(p)
	// A success (x < t) and a resample (x ≥ resampleAt) are the two
	// rare outcomes; in wrapping unsigned arithmetic both read
	// x-t ≥ resampleAt-t, so the scan makes one compare per draw.
	span := resampleAt - t
	s := &r.src
	for i := 0; i < n; {
		if s.feed == s.stop {
			s.refill()
		}
		// The run's unread words, handed out from the top down.
		w := s.vec[s.stop:s.feed]
		lo := len(w) - min(len(w), n-i)
		k := len(w) - 1
		for ; k >= lo && w[k]&rngMask-t < span; k-- {
		}
		i += len(w) - 1 - k // draws that failed the test
		if k < lo {
			s.feed = s.stop + lo
			continue
		}
		s.feed = s.stop + k
		x := w[k] & rngMask
		for x >= resampleAt { // Float64 would round to 1 and resample
			x = uint64(r.Int63())
		}
		if x < t {
			return i
		}
		i++
	}
	return n
}

// belowThreshold returns the count t of Int63 values x for which
// math/rand's Float64, float64(x)/2⁶³, is below p: the test
// Float64() < p is exactly x < t for every x Float64 does not
// resample. Scaling by 2⁶³ is exact, so the test is
// float64(x) < P with P = p·2⁶³, and since rounding an integer to
// float64 is monotone, the x passing it form a prefix [0, t).
func belowThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	P := p * (1 << 63)
	switch {
	case P > 1<<63-1024:
		// Every x below resampleAt converts to at most 2⁶³−1024.
		return resampleAt
	case P <= 1<<53:
		// Integers up to 2⁵³ convert exactly: x < P iff x < ⌈P⌉.
		return uint64(math.Ceil(P))
	}
	// P is an integer with a float64 neighbour prev below it; x
	// converts to P or above from the midpoint m of the two up, and the
	// midpoint itself goes whichever way round-half-even sends it.
	hi := uint64(P)
	m := hi - (hi-uint64(math.Nextafter(P, 0)))/2
	if float64(m) >= P {
		return m
	}
	return m + 1
}
