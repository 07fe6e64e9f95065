package dsp

import (
	"fmt"
	"math"
	"sync"
)

// This file is the planned spectral engine: every transform size gets a
// cached Plan holding the precomputed bit-reversal permutation, twiddle
// tables, and untangle coefficients, plus a scratch pool, so the
// spectral paths (the Section III-E monitor tick, the Figure 4/6
// experiments) run with zero steady-state allocations. A real n-point
// signal is packed into an n/2-point complex transform and untangled
// into the one-sided amplitude spectrum in one fused pass. The complex
// radix-2 butterflies below also serve the tests as the reference full
// transform the planned spectrum is checked against.

// cplan is a complex FFT plan: the bit-reversal permutation and forward
// twiddle table for one power-of-two size.
type cplan struct {
	n   int
	rev []int32      // bit-reversal permutation
	tw  []complex128 // tw[k] = e^{-2*pi*i*k/n}, k < n/2
}

var (
	cplanMu sync.RWMutex
	cplans  = map[int]*cplan{}
)

// cplanFor returns the cached complex plan for size n, building it on
// first use. n must be a power of two. The read path takes only an
// RLock and never allocates, so concurrent transforms of a shared size
// stay contention- and allocation-free.
func cplanFor(n int) *cplan {
	cplanMu.RLock()
	p := cplans[n]
	cplanMu.RUnlock()
	if p != nil {
		return p
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	rev := make([]int32, n)
	logN := 0
	for 1<<logN < n {
		logN++
	}
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < logN; b++ {
			r = r<<1 | (i>>b)&1
		}
		rev[i] = int32(r)
	}
	p = &cplan{n: n, rev: rev, tw: twiddles(n)}
	cplanMu.Lock()
	if q, ok := cplans[n]; ok {
		p = q
	} else {
		cplans[n] = p
	}
	cplanMu.Unlock()
	return p
}

// transform runs the in-place forward radix-2 decimation-in-time
// butterflies (unnormalized) with the precomputed bit-reversal
// permutation.
func (p *cplan) transform(x []complex128) {
	n := p.n
	for i, jj := range p.rev {
		if j := int(jj); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.tw
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*stride]
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// Plan is a cached real-input spectral plan for one power-of-two
// transform size. Plans are shared process-wide (PlanFor returns the
// same *Plan for the same size) and safe for concurrent use: scratch
// buffers come from an internal pool, so any number of goroutines can
// run SpectrumInto on one Plan with zero steady-state allocations and
// bit-identical results.
type Plan struct {
	n       int    // transform size (power of two, >= 1)
	half    *cplan // complex plan of size n/2 (nil when n < 2)
	rtw     []complex128
	scratch sync.Pool // *[]complex128 of length n/2
}

var (
	planMu sync.RWMutex
	plans  = map[int]*Plan{}
)

// PlanFor returns the cached Plan for transform size n, which must be a
// power of two (callers pad with NextPow2 first; PlanFor panics
// otherwise). The lookup is allocation-free.
func PlanFor(n int) *Plan {
	planMu.RLock()
	p := plans[n]
	planMu.RUnlock()
	if p != nil {
		return p
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: plan length %d is not a power of two", n))
	}
	p = &Plan{n: n}
	if n >= 2 {
		p.half = cplanFor(n / 2)
		// Untangle twiddles e^{-2*pi*i*k/n} for k < n/2: exactly the
		// forward twiddle table of the full-size transform.
		p.rtw = twiddles(n)
	}
	m := n / 2
	p.scratch.New = func() any {
		s := make([]complex128, m)
		return &s
	}
	planMu.Lock()
	if q, ok := plans[n]; ok {
		p = q
	} else {
		plans[n] = p
	}
	planMu.Unlock()
	return p
}

// PlanForLength returns the Plan for the padded transform of a signal
// of the given sample count: PlanFor(NextPow2(samples)).
func PlanForLength(samples int) *Plan { return PlanFor(NextPow2(samples)) }

// Size returns the transform length n of the plan.
func (p *Plan) Size() int { return p.n }

// grow returns buf resized to n, reusing its backing array when the
// capacity suffices.
func grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// packWindowed fills z[j] = c[2j]x[2j] + i*c[2j+1]x[2j+1] (zero-padded
// past len(x)): the standard even/odd packing that lets the half-size
// complex transform carry the full real signal, with the window multiply
// fused into the load so no windowed copy of x is ever materialized.
func packWindowed(z []complex128, x, c []float64) {
	m := len(z)
	full := len(x) / 2
	if full > m {
		full = m
	}
	j := 0
	for ; j+2 <= full; j += 2 { // 4 real samples per iteration
		z[j] = complex(x[2*j]*c[2*j], x[2*j+1]*c[2*j+1])
		z[j+1] = complex(x[2*j+2]*c[2*j+2], x[2*j+3]*c[2*j+3])
	}
	for ; j < full; j++ {
		z[j] = complex(x[2*j]*c[2*j], x[2*j+1]*c[2*j+1])
	}
	if j < m {
		if 2*j < len(x) {
			z[j] = complex(x[2*j]*c[2*j], 0)
			j++
		}
		for ; j < m; j++ {
			z[j] = 0
		}
	}
}

// SpectrumInto computes the one-sided amplitude spectrum of x (windowed
// by w, zero-padded to the plan size, scaled by the window's coherent
// gain exactly as NewSpectrum does) into dst, growing dst only when
// needed, and returns the n/2+1 amplitudes. The transform runs in a
// pooled half-size scratch buffer, so the call is allocation-free at
// steady state and safe for concurrent use on a shared Plan. dst may
// alias x: every read of x happens during the packing pass, before the
// first write to dst.
func (p *Plan) SpectrumInto(dst []float64, x []float64, w Window) []float64 {
	if len(x) == 0 {
		return grow(dst, 0)
	}
	n := p.n
	if len(x) > n {
		panic(fmt.Sprintf("dsp: signal of %d samples exceeds plan size %d", len(x), n))
	}
	wv := windowFor(w, len(x))
	scale := 2 / (float64(len(x)) * wv.gain)
	if n == 1 {
		dst = grow(dst, 1)
		// A single bin is both DC and Nyquist; NewSpectrum halves once.
		dst[0] = math.Abs(x[0]*wv.coef[0]) * scale / 2
		return dst
	}
	m := n / 2
	dst = grow(dst, m+1)
	zp := p.scratch.Get().(*[]complex128)
	z := *zp
	packWindowed(z, x, wv.coef)
	p.half.transform(z)
	// Untangle and take magnitudes in one pass: only the one-sided bins
	// are needed, so the full spectrum is never materialized.
	z0 := z[0]
	dst[0] = math.Abs(real(z0)+imag(z0)) * scale / 2 // DC appears once
	dst[m] = math.Abs(real(z0)-imag(z0)) * scale / 2 // Nyquist appears once
	for k := 1; 2*k <= m; k++ {
		j := m - k
		a, b := z[k], z[j]
		ar, ai := real(a), imag(a)
		br, bi := real(b), imag(b)
		evR, evI := 0.5*(ar+br), 0.5*(ai-bi)
		odR, odI := 0.5*(ai+bi), 0.5*(br-ar)
		tk := p.rtw[k]
		tkR, tkI := real(tk), imag(tk)
		xkR := evR + tkR*odR - tkI*odI
		xkI := evI + tkR*odI + tkI*odR
		dst[k] = math.Sqrt(xkR*xkR+xkI*xkI) * scale
		if j == k {
			continue
		}
		tj := p.rtw[j]
		tjR, tjI := real(tj), imag(tj)
		xjR := evR + tjR*odR + tjI*odI
		xjI := -evI - tjR*odI + tjI*odR
		dst[j] = math.Sqrt(xjR*xjR+xjI*xjI) * scale
	}
	p.scratch.Put(zp)
	return dst
}
