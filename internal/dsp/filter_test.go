package dsp

import "testing"

func TestAdd(t *testing.T) {
	dst := []float64{1, 1, 1}
	Add(dst, []float64{1, 2})
	if dst[0] != 2 || dst[1] != 3 || dst[2] != 1 {
		t.Fatalf("Add: %v", dst)
	}
}
