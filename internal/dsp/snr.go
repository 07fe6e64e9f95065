package dsp

import "math"

// RMS returns the root-mean-square value of x. It returns 0 for an empty
// slice.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(x)))
}

// PeakAbs returns the largest absolute sample value of x, or 0 for an
// empty slice. The scan keeps the natural index order, so the result is
// bit-identical to the straightforward loop it replaces in callers.
func PeakAbs(x []float64) float64 {
	peak := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	return peak
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// RemoveMean returns x with its mean subtracted.
func RemoveMean(x []float64) []float64 {
	m := Mean(x)
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - m
	}
	return out
}

// SNRVoltage implements Eq. (2) of the paper: the ratio of the RMS voltage
// of the signal record to the RMS voltage of the noise record. The two
// records are measured separately, exactly as in Section V-A: first the
// chip idles (noise only), then it runs the workload (signal plus noise).
func SNRVoltage(signal, noise []float64) float64 {
	n := RMS(RemoveMean(noise))
	if n == 0 {
		return math.Inf(1)
	}
	return RMS(RemoveMean(signal)) / n
}

// SNRdB implements Eq. (3): 20*log10 of the voltage SNR.
func SNRdB(signal, noise []float64) float64 {
	return VoltageRatioDB(SNRVoltage(signal, noise))
}

// VoltageRatioDB converts a voltage ratio to decibels (20 log10 r).
func VoltageRatioDB(r float64) float64 {
	if r <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(r)
}
