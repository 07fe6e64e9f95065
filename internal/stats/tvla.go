package stats

import "math"

// WelchT computes Welch's t-statistic and degrees of freedom between two
// samples — the Test Vector Leakage Assessment (TVLA) statistic the
// side-channel community uses to decide whether two trace populations
// differ. |t| > 4.5 is the conventional detection criterion.
func WelchT(a, b []float64) (t, dof float64) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0
	}
	sa := Summarize(a)
	sb := Summarize(b)
	va := sa.Std * sa.Std / float64(sa.N)
	vb := sb.Std * sb.Std / float64(sb.N)
	den := math.Sqrt(va + vb)
	if den == 0 {
		if sa.Mean == sb.Mean {
			return 0, float64(sa.N + sb.N - 2)
		}
		return math.Inf(sign(sa.Mean - sb.Mean)), float64(sa.N + sb.N - 2)
	}
	t = (sa.Mean - sb.Mean) / den
	// Welch–Satterthwaite degrees of freedom.
	num := (va + vb) * (va + vb)
	d := va*va/float64(sa.N-1) + vb*vb/float64(sb.N-1)
	if d == 0 {
		dof = float64(sa.N + sb.N - 2)
	} else {
		dof = num / d
	}
	return t, dof
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
