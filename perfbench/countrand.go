package main

import "emtrust/internal/frand"

// countingRand is a trace.Rand that passes every draw through to the
// die's concrete generator and counts it, so the acquisition chain's
// draws per round are an exact count rather than a timing.
type countingRand struct {
	r     *frand.Rand
	draws uint64
}

func (c *countingRand) Float64() float64 {
	c.draws++
	return c.r.Float64()
}

func (c *countingRand) NormFloat64() float64 {
	c.draws++
	return c.r.NormFloat64()
}

func (c *countingRand) Intn(n int) int {
	c.draws++
	return c.r.Intn(n)
}
