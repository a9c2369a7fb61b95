package main

import (
	"math/rand"
	"time"
)

// arrivals returns n open-loop due times over [0, span): a Poisson process
// conditioned on exactly n arrivals, built from n+1 exponential gaps scaled
// to sum to span. Fixing n keeps the offered load identical across seeds;
// the seed moves only the spacing.
func arrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	gaps := make([]float64, n+1)
	var sum float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	out := make([]time.Duration, n)
	var acc float64
	for i := 0; i < n; i++ {
		acc += gaps[i]
		out[i] = time.Duration(acc / sum * float64(span))
	}
	return out
}

// sample is one open-loop request's timing. Latency runs from the due
// time, so a stall also charges the requests queued behind it; lag is how
// late the generator sent the request.
type sample struct {
	due, sent, done time.Duration // offsets from the run's start
}

func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) lag() time.Duration     { return s.sent - s.due }
func (s sample) service() time.Duration { return s.done - s.sent }
