package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p95 over 40 samples is the second-largest value, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank,
// refusing when fewer than minBeyond samples lie beyond it. xs is not
// modified. +Inf samples (failed requests) sort last and count as
// beyond any finite percentile.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			100*q, minBeyond, max(n-rank, 0), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice. A median needs no tail, so
// it takes any sample count — callers medianing a handful of passes
// rely on that.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached reports zero work rather than NaN, which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
