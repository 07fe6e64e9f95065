package dsp

// Add accumulates src into dst element-wise (over the shorter length) and
// returns dst.
func Add(dst, src []float64) []float64 {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
	return dst
}
