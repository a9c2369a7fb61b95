package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p/100*n (99.9% of 10000 computes
	// as 9990.000000000002) from pushing the rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailLevel returns the highest percentile in tailLevels that leaves at
// least minBeyond samples above it, or false when n is too small for any.
func tailLevel(n int) (float64, bool) {
	for _, p := range tailLevels {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// maxTail is the tail percentile every workload reports. Its sample
// counts at the benchmark's run length stay well above the 200 it needs,
// so the level does not switch between runs as throughput moves.
const maxTail = 95

// tailOf returns the tail percentile reported for n samples: maxTail, or
// the highest level the sample count supports when it is lower (50 when
// none is).
func tailOf(n int) float64 {
	p, ok := tailLevel(n)
	if !ok {
		return 50
	}
	return math.Min(p, maxTail)
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle ones for
// an even count), NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
