// Package dsp provides the signal-processing primitives used by the trust
// evaluation framework: the planned one-sided amplitude spectrum, window
// functions, Goertzel single-bin detection, and RMS and SNR computation.
// Everything is implemented from scratch on top of the standard library so
// the repository stays dependency-free.
package dsp

import (
	"math"
	"math/bits"
)

// twiddles returns the forward roots of unity for transform length n:
// tw[k] = e^{-2*pi*i*k/n} for k < n/2. Each butterfly stage of size s
// reads the same table with stride n/s, so one table serves the whole
// transform, and the direct Cos/Sin evaluation is more accurate than a
// cumulative w *= wStep product. The plan caches (plan.go) are the only
// callers and build each table once.
func twiddles(n int) []complex128 {
	tw := make([]complex128, n/2)
	for k := range tw {
		th := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(th), math.Sin(th))
	}
	return tw
}

// NextPow2 returns the smallest power of two that is >= n. It returns 1 for
// n <= 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}
